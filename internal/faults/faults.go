// Package faults is a deterministic, seeded fault-injection framework for
// the simulated chip: a chaos harness. An Injector decides, purely from
// (seed, tile, attempt), whether a tile attempt is perturbed and how, then
// arms the attempt's aicore.Core with hooks that realize the fault:
//
//   - Transient: the run aborts at a chosen instruction with a detected
//     transient fault (a soft error caught by a consistency check).
//   - BitFlip: one bit of the Unified Buffer is flipped mid-run and the
//     run aborts with an ECC error — the corruption is really present in
//     the scratch-pad, so a resilience layer that failed to retry on a
//     pristine core would propagate it.
//   - StuckPipe: one pipeline stops retiring; the run blocks until the
//     core's Cancel channel fires (a real hang, reclaimed by a watchdog).
//   - DroppedFlag: the cached program is re-synchronized with explicit
//     set_flag/wait_flag tokens (cce.AutoSync), one set_flag is dropped,
//     and the result runs under explicit semantics — the starved
//     wait_flag spins forever, again a real hang, whose diagnosis names
//     the blocked pipe and the unsatisfied flag (aicore.DeadlockError).
//
// Decisions are pure functions of the configuration, so the fault schedule
// is identical across runs and independent of goroutine scheduling: chaos
// tests can assert bit-identical outputs and exact counter values.
package faults

import (
	"errors"
	"fmt"
	"strings"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/obs"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// KindNone: the attempt runs clean.
	KindNone Kind = iota
	// KindTransient aborts the run with a detected transient fault.
	KindTransient
	// KindBitFlip flips a scratch-pad bit and aborts with an ECC error.
	KindBitFlip
	// KindDroppedFlag drops a set_flag from the explicitly synchronized
	// program, hanging the matching wait_flag.
	KindDroppedFlag
	// KindStuckPipe hangs the run at an instruction of a chosen pipe.
	KindStuckPipe
	numKinds
)

var kindNames = [...]string{"none", "transient", "bitflip", "droppedflag", "stuckpipe"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKinds parses a comma-separated kind list ("transient,bitflip").
func ParseKinds(s string) ([]Kind, error) {
	var kinds []Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for k := KindTransient; k < numKinds; k++ {
			if k.String() == name {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown kind %q (want transient, bitflip, droppedflag, stuckpipe)", name)
		}
	}
	return kinds, nil
}

// AllKinds returns every injectable kind.
func AllKinds() []Kind {
	return []Kind{KindTransient, KindBitFlip, KindDroppedFlag, KindStuckPipe}
}

// Config describes a fault schedule.
type Config struct {
	// Seed fixes the pseudo-random schedule; the same seed always injects
	// the same faults into the same (tile, attempt) pairs.
	Seed int64
	// Rate is the per-attempt injection probability in [0, 1].
	Rate float64
	// Kinds restricts the injected fault kinds; nil enables all.
	Kinds []Kind
	// MaxPerTile caps how many attempts of one tile may fault (faults hit
	// attempts 1..MaxPerTile; later retries always run clean). 0 means 1,
	// which guarantees the first retry of any faulted tile succeeds.
	// Set it at or above the executor's attempt budget to exhaust retries.
	MaxPerTile int
}

// Tile identifies one (n, c1) tile of a chip run.
type Tile struct{ N, C1 int }

// Fault is one decided perturbation. The zero value is "no fault".
type Fault struct {
	// Kind selects the perturbation; KindNone runs clean.
	Kind Kind
	// r is the entropy the armed hooks derive fault parameters from
	// (target instruction, flipped bit, dropped flag).
	r uint64
}

// Injector decides and arms faults. Safe for concurrent use: decisions
// are pure and the counters are atomic.
type Injector struct {
	cfg      Config
	kinds    []Kind
	injected [numKinds]*obs.Counter
}

// New creates an injector. r receives the faults_injected{kind=...}
// counters; nil defers registration to Bind (or a private registry).
func New(cfg Config, r *obs.Registry) *Injector {
	if cfg.MaxPerTile <= 0 {
		cfg.MaxPerTile = 1
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	inj := &Injector{cfg: cfg, kinds: kinds}
	if r != nil {
		inj.Bind(r)
	}
	return inj
}

// Bind registers the injector's counters in r (idempotent; the first
// registry wins). The chip binds an unbound injector to its own registry
// so faults_injected appears in the same snapshot as the retry counters.
func (inj *Injector) Bind(r *obs.Registry) {
	if inj.injected[KindTransient] != nil {
		return
	}
	for _, k := range AllKinds() {
		inj.injected[k] = r.Counter("faults_injected", "kind", k.String())
	}
}

// Injected returns how many faults of kind k have actually fired.
func (inj *Injector) Injected(k Kind) int64 {
	if inj.injected[k] == nil {
		return 0
	}
	return inj.injected[k].Load()
}

func (inj *Injector) count(k Kind) {
	if inj.injected[k] != nil {
		inj.injected[k].Inc()
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Decide returns the fault for one (tile, attempt), attempt 1-based. Pure:
// the schedule depends only on the configuration, never on execution
// order, so concurrent workers and reruns see the same faults.
func (inj *Injector) Decide(t Tile, attempt int) Fault {
	if attempt > inj.cfg.MaxPerTile || inj.cfg.Rate <= 0 {
		return Fault{}
	}
	h := splitmix64(uint64(inj.cfg.Seed))
	h = splitmix64(h ^ uint64(uint32(t.N))<<32 ^ uint64(uint32(t.C1)))
	h = splitmix64(h ^ uint64(attempt))
	// 53 uniform bits -> [0, 1).
	if float64(h>>11)/(1<<53) >= inj.cfg.Rate {
		return Fault{}
	}
	h2 := splitmix64(h)
	return Fault{Kind: inj.kinds[h2%uint64(len(inj.kinds))], r: splitmix64(h2)}
}

// Disarm removes any fault hooks from core.
func Disarm(core *aicore.Core) {
	core.OnInstr = nil
	core.ReplayWith = nil
	core.HangOnDeadlock = false
}

// Arm installs f's hooks on core for the next single program run. KindNone
// disarms. The injected-fault counters increment when a fault actually
// fires (a DroppedFlag against a program with no cross-pipe dependencies,
// for instance, has nothing to drop and runs clean).
func (inj *Injector) Arm(core *aicore.Core, f Fault) {
	Disarm(core)
	switch f.Kind {
	case KindNone:
	case KindTransient, KindBitFlip, KindStuckPipe:
		inj.armInstrFault(core, f)
	case KindDroppedFlag:
		inj.armDroppedFlag(core, f)
	}
}

// armInstrFault realizes the instruction-targeted kinds through OnInstr.
// The target index is derived from the program length the moment the
// program is observed, so every program fires exactly once.
func (inj *Injector) armInstrFault(core *aicore.Core, f Fault) {
	target := -1
	var pipe isa.Pipe
	fired := false
	prevOnProgram := core.OnProgram
	core.OnProgram = func(p *cce.Program) {
		if prevOnProgram != nil {
			prevOnProgram(p)
		}
		if target < 0 && len(p.Instrs) > 0 {
			target = int(f.r % uint64(len(p.Instrs)))
			pipe = p.Instrs[target].Pipe()
		}
	}
	core.OnInstr = func(idx int, in isa.Instr) error {
		if fired || idx != target {
			return nil
		}
		fired = true
		switch f.Kind {
		case KindBitFlip:
			mem := core.Mem.Mem(isa.UB)
			off := int((f.r >> 17) % uint64(len(mem)))
			bit := uint(f.r>>3) & 7
			mem[off] ^= 1 << bit
			inj.count(KindBitFlip)
			return &ECCError{Buf: isa.UB, Offset: off, Bit: int(bit)}
		case KindStuckPipe:
			inj.count(KindStuckPipe)
			if core.Cancel != nil {
				// The pipe stops retiring: a real hang, held until the
				// watchdog (or a run-wide abort) reclaims the core.
				<-core.Cancel
			}
			return &StuckPipeError{Pipe: pipe, Instr: idx}
		default:
			inj.count(KindTransient)
			return &TransientError{Instr: idx}
		}
	}
}

// armDroppedFlag realizes the dropped-set_flag kind through ReplayWith:
// the cached program is explicitly synchronized, one set_flag is removed,
// and the mutilated program runs under explicit semantics, hanging on the
// starved wait until the core is cancelled.
func (inj *Injector) armDroppedFlag(core *aicore.Core, f Fault) {
	core.ReplayWith = func(exe *aicore.Executable) (*aicore.Stats, error) {
		synced := cce.AutoSync(exe.Program())
		var sets []int
		for i, in := range synced.Instrs {
			if _, ok := in.(*isa.SetFlagInstr); ok {
				sets = append(sets, i)
			}
		}
		if len(sets) == 0 {
			// Single-pipe program: nothing to drop, so disarm and run the
			// ordinary replay (which would otherwise call this hook again).
			core.ReplayWith = nil
			return core.Replay(exe)
		}
		drop := sets[int(f.r%uint64(len(sets)))]
		mut := cce.New(synced.Name + "-dropflag")
		for i, in := range synced.Instrs {
			if i != drop {
				mut.Emit(in)
			}
		}
		inj.count(KindDroppedFlag)
		core.HangOnDeadlock = true
		defer func() { core.HangOnDeadlock = false }()
		return core.RunExplicit(mut)
	}
}

// TransientError is a detected transient tile fault (soft error).
type TransientError struct {
	// Instr is the instruction index the fault fired at.
	Instr int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: injected transient fault at instr %d", e.Instr)
}

// ECCError is a detected (uncorrectable) scratch-pad bit flip.
type ECCError struct {
	// Buf is the corrupted buffer.
	Buf isa.BufID
	// Offset and Bit locate the flipped bit.
	Offset, Bit int
}

func (e *ECCError) Error() string {
	return fmt.Sprintf("faults: injected ECC error: bit %d of %v byte %d flipped", e.Bit, e.Buf, e.Offset)
}

// StuckPipeError reports a pipeline that stopped retiring; the run hung
// until the core was cancelled.
type StuckPipeError struct {
	// Pipe is the stuck pipeline.
	Pipe isa.Pipe
	// Instr is the instruction index that never retired.
	Instr int
}

func (e *StuckPipeError) Error() string {
	return fmt.Sprintf("faults: injected stuck pipe: %v wedged at instr %d", e.Pipe, e.Instr)
}

// IsInjected reports whether err stems from an injected fault, and its
// kind. A resilient executor treats exactly these (plus hangs and panics)
// as retryable; any other failure is a deterministic bug and fails fast.
func IsInjected(err error) (Kind, bool) {
	var te *TransientError
	var ee *ECCError
	var se *StuckPipeError
	switch {
	case errors.As(err, &te):
		return KindTransient, true
	case errors.As(err, &ee):
		return KindBitFlip, true
	case errors.As(err, &se):
		return KindStuckPipe, true
	}
	return KindNone, false
}
