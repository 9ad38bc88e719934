// Package aicore simulates one DaVinci AI Core executing a CCE program:
// functionally (instructions transform bytes in the simulated buffers) and
// temporally (a timing model charges cycles per instruction and overlaps
// the Scalar, Vector, Cube and MTE pipelines subject to data hazards,
// mirroring the synchronized multi-pipeline execution of §III-A).
package aicore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/lint"
)

// ErrInterrupted is returned (wrapped with the program position) when a
// run is abandoned because the core's Cancel channel closed — a chip-level
// abort after another core failed, or a watchdog reclaiming a hung tile.
var ErrInterrupted = errors.New("interrupted")

// Core is one AI Core: a memory system plus a timing configuration.
type Core struct {
	Mem  *buffer.Set
	Cost *isa.CostModel
	// Serialize disables pipeline overlap (every instruction waits for
	// the previous one); used by the scheduling ablation benchmarks.
	Serialize bool
	// Trace, when non-nil, records every scheduled instruction for
	// timeline visualization (Replay then interprets the program).
	Trace *Trace
	// Strict enables the static verifier (internal/lint): every program
	// is linted against this core's buffer capacities before execution,
	// and any error-severity finding aborts the run. Opt-in because the
	// analysis is quadratic in instruction count.
	Strict bool
	// OnProgram, when non-nil, observes every program handed to Run or
	// RunExplicit before execution. cmd/davinci-lint uses it to capture
	// the instruction streams the kernels emit for offline linting.
	OnProgram func(*cce.Program)
	// Cancel, when non-nil, cooperatively interrupts execution: every
	// instruction loop polls it and returns ErrInterrupted once it is
	// closed. The chip layer points it at the run's context, or at a
	// per-attempt watchdog channel, so a run-wide abort or a per-tile
	// watchdog can reclaim a core that is mid-program (or hung inside a
	// blocking hook).
	Cancel <-chan struct{}
	// OnInstr, when non-nil, observes every instruction immediately before
	// its functional execution (Run, RunExplicit, and Replay, which
	// interprets the program while a hook is armed); a non-nil error aborts
	// the run. The fault injector (internal/faults) uses it to perturb runs
	// at a chosen instruction.
	OnInstr func(idx int, in isa.Instr) error
	// ReplayWith, when non-nil, runs in place of every Replay. The fault
	// injector uses it to run a perturbed copy of the program (e.g. with a
	// set_flag dropped) under explicit synchronization semantics. A hook
	// that wants the ordinary replay must clear itself before calling it.
	ReplayWith func(*Executable) (*Stats, error)
	// HangOnDeadlock makes RunExplicit model a deadlocked program the way
	// hardware would — spinning forever on the unsatisfied wait_flag —
	// by blocking on Cancel before returning the DeadlockError. Without a
	// Cancel channel the error returns immediately.
	HangOnDeadlock bool
}

// interrupted polls the Cancel channel without blocking.
func (c *Core) interrupted() bool {
	if c.Cancel == nil {
		return false
	}
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// lintStrict runs the static verifier over prog with the core's buffer
// capacities, failing on any error-severity diagnostic.
func (c *Core) lintStrict(prog *cce.Program, mode lint.SyncMode) error {
	diags := lint.CheckWith(lint.Options{Caps: c.Mem.Capacities(), Mode: mode}, prog)
	if errs := lint.Errors(diags); len(errs) > 0 {
		return fmt.Errorf("aicore: %s: strict lint: %d error(s), first: %s", prog.Name, len(errs), errs[0])
	}
	return nil
}

// New creates a core with the given buffer configuration and cost model.
// A nil cost model takes the calibrated default.
func New(cfg buffer.Config, cost *isa.CostModel) *Core {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	return &Core{Mem: buffer.NewSet(cfg), Cost: cost}
}

// Stats aggregates the timing outcome of one or more program runs.
type Stats struct {
	// Cycles is the makespan: the completion time of the last instruction.
	Cycles int64
	// PipeBusy is the total busy time per pipeline.
	PipeBusy [isa.NumPipes]int64
	// PipeInstrs is the instruction count per pipeline.
	PipeInstrs [isa.NumPipes]int64
	// Instrs is the total instruction count.
	Instrs int64
	// BytesIn is the global-memory read traffic (MTE2 payload).
	BytesIn int64
	// BytesOut is the global-memory write traffic (MTE3 payload).
	BytesOut int64
}

// AddSerial accumulates o as if it ran after s (cycles add).
func (s *Stats) AddSerial(o *Stats) {
	cycles := s.Cycles + o.Cycles
	s.AddParallel(o)
	s.Cycles = cycles
}

// AddParallel accumulates o as if it ran concurrently with s on another
// core (cycles take the maximum, work adds).
func (s *Stats) AddParallel(o *Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Instrs += o.Instrs
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	for i := range s.PipeBusy {
		s.PipeBusy[i] += o.PipeBusy[i]
		s.PipeInstrs[i] += o.PipeInstrs[i]
	}
}

// account adds one instruction scheduled over [start, end) to s: its
// pipe's busy time and instruction count, its global-memory traffic, and
// the makespan.
func (s *Stats) account(in isa.Instr, start, end int64) {
	pipe := in.Pipe()
	s.PipeBusy[pipe] += end - start
	s.PipeInstrs[pipe]++
	s.Instrs++
	if cp, ok := in.(*isa.CopyInstr); ok {
		switch pipe {
		case isa.PipeMTE2:
			s.BytesIn += int64(cp.Bytes())
		case isa.PipeMTE3:
			s.BytesOut += int64(cp.Bytes())
		}
	}
	if end > s.Cycles {
		s.Cycles = end
	}
}

func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d instrs=%d vec=%d(%dcyc) mte1=%d mte2=%d mte3=%d cube=%d",
		s.Cycles, s.Instrs,
		s.PipeInstrs[isa.PipeVector], s.PipeBusy[isa.PipeVector],
		s.PipeInstrs[isa.PipeMTE1], s.PipeInstrs[isa.PipeMTE2],
		s.PipeInstrs[isa.PipeMTE3], s.PipeInstrs[isa.PipeCube])
}

// interval is a byte range with the completion time and instruction index
// of its last accessor (the index feeds stall attribution).
type interval struct {
	off, end int
	t        int64
	idx      int
}

// bufTimes tracks recent reads and writes of one buffer for hazard
// resolution. Histories are bounded: old entries fold into a floor time
// that conservatively applies to the whole buffer (by then execution has
// advanced past it, so precision is only needed for recent accesses).
type bufTimes struct {
	writes, reads  []interval
	floorW, floorR int64
}

const historyCap = 96

func foldOldest(list []interval, floor *int64) []interval {
	// Fold the older half (by completion time) into the floor.
	sort.Slice(list, func(i, j int) bool { return list[i].t < list[j].t })
	half := len(list) / 2
	for _, iv := range list[:half] {
		if iv.t > *floor {
			*floor = iv.t
		}
	}
	return append(list[:0], list[half:]...)
}

func (b *bufTimes) lastOverlap(list []interval, r isa.Region) (int64, int) {
	var t int64
	idx := -1
	for _, iv := range list {
		if iv.off < r.End && r.Off < iv.end && iv.t > t {
			t, idx = iv.t, iv.idx
		}
	}
	return t, idx
}

// Run validates, executes and times prog, returning its stats. Functional
// state (buffer contents) reflects the completed program.
func (c *Core) Run(prog *cce.Program) (*Stats, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if c.OnProgram != nil {
		c.OnProgram(prog)
	}
	if c.Strict {
		// Run's scoreboard orders hazards implicitly, so verify the
		// implicit-sync contract (bounds, invariants, flag protocol).
		if err := c.lintStrict(prog, lint.SyncImplicit); err != nil {
			return nil, err
		}
	}
	return c.schedule(prog)
}

// Executable is a program prepared for repeated replay (an ops.Plan holds
// one). It lazily builds and keeps the program's flattened functional
// trace and, per (cost model, serialize) context, the Stats the static
// board computes for it. Both depend only on the instruction stream, so
// one Executable may be replayed concurrently on any cores whose buffers
// fit the program.
type Executable struct {
	prog     *cce.Program
	flatOnce sync.Once
	flat     *flatProgram
	timings  sync.Map // timingKey -> *Stats
}

type timingKey struct {
	cost      isa.CostModel
	serialize bool
}

// NewExecutable prepares prog for Replay. prog must already be validated
// (and, for strict use, linted): Replay checks neither.
func NewExecutable(prog *cce.Program) *Executable { return &Executable{prog: prog} }

// Program returns the instruction stream. Treat as read-only.
func (e *Executable) Program() *cce.Program { return e.prog }

// Replay executes and times a prepared program, skipping per-run
// validation and strict linting (the caller did both once, when it
// built the Executable). It is the one place that chooses how a replay
// runs:
//
//   - ReplayWith set: the hook runs instead.
//   - Trace or OnInstr attached: the program is interpreted instruction by
//     instruction with the scoreboard, as Run does, because per-instruction
//     observers need per-instruction execution and a hang report needs the
//     trace cut off at the instruction that hung. The trace is reset first,
//     so each replay yields exactly one timeline.
//   - Otherwise, the first replay included: the flattened trace runs and
//     the static board's Stats are returned.
//
// All three produce the buffer contents and Stats Run would.
func (c *Core) Replay(exe *Executable) (*Stats, error) {
	if c.ReplayWith != nil {
		return c.ReplayWith(exe)
	}
	if c.OnProgram != nil {
		c.OnProgram(exe.prog)
	}
	if c.Trace != nil || c.OnInstr != nil {
		if c.Trace != nil {
			c.Trace.Reset()
		}
		return c.schedule(exe.prog)
	}
	exe.flatOnce.Do(func() { exe.flat = flatten(exe.prog) })
	if err := c.runFlat(exe.flat); err != nil {
		return nil, err
	}
	key := timingKey{*c.Cost, c.Serialize}
	v, ok := exe.timings.Load(key)
	if !ok {
		st := staticStats(exe.prog, c.Cost, c.Serialize)
		v, _ = exe.timings.LoadOrStore(key, &st)
	}
	st := *v.(*Stats)
	return &st, nil
}

// schedule is the interpreted body of Run and Replay: functional execution
// in program order plus the implicit-sync timing scoreboard (see board,
// which also backs the static Time oracle and Executable's timing). Every
// start time the board computes is identical to the pre-attribution
// scoreboard: a barrier raises a floor proposed to every later instruction
// instead of rewriting pipeFree, which yields the same maximum while
// letting the wait surface as an attributed stall on the pipe that
// actually pays it.
func (c *Core) schedule(prog *cce.Program) (*Stats, error) {
	board := newBoard(c.Cost, c.Serialize)
	if c.Trace != nil {
		c.Trace.grow(len(prog.Instrs))
	}

	scratch := flatProgram{prog: prog}
	for idx, in := range prog.Instrs {
		// Functional execution in program order. In-order issue per pipe
		// plus hazard-respecting start times make this equivalent to the
		// timed order for data.
		if err := c.step(&scratch, idx); err != nil {
			return nil, err
		}
		tr := newStallTracker()
		start, end, stall := board.place(in, idx, &tr)
		if c.Trace != nil {
			c.Trace.record(idx, in, start, end, stall)
		}
	}
	st := board.stats
	return &st, nil
}

// step is the interpreter's per-instruction body, shared by schedule and
// RunExplicit's functional pass: it polls Cancel, calls OnInstr, then
// lowers instruction idx alone into scratch (reused across the run, so
// nothing merges across an instruction boundary) and runs its ops.
func (c *Core) step(scratch *flatProgram, idx int) error {
	prog, in := scratch.prog, scratch.prog.Instrs[idx]
	if c.interrupted() {
		return fmt.Errorf("aicore: %s instr %d: %w", prog.Name, idx, ErrInterrupted)
	}
	if c.OnInstr != nil {
		if err := c.OnInstr(idx, in); err != nil {
			return fmt.Errorf("aicore: %s instr %d (%s): %w", prog.Name, idx, in, err)
		}
	}
	scratch.ops, scratch.errs = scratch.ops[:0], scratch.errs[:0]
	scratch.appendInstr(idx, in)
	return c.runFlat(scratch)
}
