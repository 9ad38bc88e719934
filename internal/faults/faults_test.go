package faults

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
)

// TestDecideDeterminism: the fault schedule is a pure function of the
// configuration — two injectors with the same seed agree on every
// (tile, attempt), and a different seed produces a different schedule.
func TestDecideDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.3, MaxPerTile: 2}
	a := New(cfg, nil)
	b := New(cfg, nil)
	other := New(Config{Seed: 43, Rate: 0.3, MaxPerTile: 2}, nil)
	fired, differs := 0, false
	for n := 0; n < 16; n++ {
		for c1 := 0; c1 < 8; c1++ {
			for attempt := 1; attempt <= 2; attempt++ {
				tile := Tile{N: n, C1: c1}
				fa, fb := a.Decide(tile, attempt), b.Decide(tile, attempt)
				if fa != fb {
					t.Fatalf("tile %v attempt %d: %v vs %v from identical configs", tile, attempt, fa, fb)
				}
				if fa.Kind != KindNone {
					fired++
				}
				if fa != other.Decide(tile, attempt) {
					differs = true
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("rate 0.3 over 256 decisions injected nothing")
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestDecideMaxPerTile(t *testing.T) {
	// Rate 1: every eligible attempt faults; MaxPerTile bounds eligibility.
	inj := New(Config{Seed: 7, Rate: 1, MaxPerTile: 2}, nil)
	tile := Tile{N: 3, C1: 1}
	for attempt := 1; attempt <= 2; attempt++ {
		if f := inj.Decide(tile, attempt); f.Kind == KindNone {
			t.Fatalf("attempt %d: rate-1 decision did not fault", attempt)
		}
	}
	if f := inj.Decide(tile, 3); f.Kind != KindNone {
		t.Fatalf("attempt 3 faulted (%v) beyond MaxPerTile=2", f.Kind)
	}
}

func TestParseKinds(t *testing.T) {
	kinds, err := ParseKinds("transient, stuckpipe")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != KindTransient || kinds[1] != KindStuckPipe {
		t.Fatalf("got %v", kinds)
	}
	if _, err := ParseKinds("meteor"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// addProgram builds a two-pipe program (GM->UB copy, vector add, UB->GM
// copy) whose AutoSync form carries droppable set_flags.
func addProgram(t *testing.T, core *aicore.Core, n int) (*cce.Program, int) {
	t.Helper()
	gmIn := core.Mem.Space(isa.GM).MustAlloc(2 * n * fp16.Bytes)
	gmOut := core.Mem.Space(isa.GM).MustAlloc(n * fp16.Bytes)
	ubA := core.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	ubB := core.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	ubD := core.Mem.Space(isa.UB).MustAlloc(n * fp16.Bytes)
	p := cce.New("chaos-add")
	p.EmitCopy(isa.GM, gmIn, isa.UB, ubA, n)
	p.EmitCopy(isa.GM, gmIn+n*fp16.Bytes, isa.UB, ubB, n)
	p.EmitElementwise(isa.VAdd, isa.UB, ubD, ubA, ubB, n)
	p.EmitCopy(isa.UB, ubD, isa.GM, gmOut, n)
	return p, gmOut
}

func TestArmTransient(t *testing.T) {
	r := obs.NewRegistry()
	inj := New(Config{Seed: 1, Rate: 1}, r)
	core := aicore.New(buffer.Config{}, nil)
	p, _ := addProgram(t, core, 64)
	inj.Arm(core, Fault{Kind: KindTransient, r: 12345})
	_, err := core.Run(p)
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TransientError", err)
	}
	if got := inj.Injected(KindTransient); got != 1 {
		t.Fatalf("faults_injected{transient} = %d, want 1", got)
	}
	// Disarmed core runs clean again.
	Disarm(core)
	core.Mem.ResetLocal()
	if _, err := core.Run(p); err != nil {
		t.Fatalf("post-disarm run: %v", err)
	}
}

func TestArmBitFlipCorruptsUB(t *testing.T) {
	inj := New(Config{Seed: 2, Rate: 1}, obs.NewRegistry())
	core := aicore.New(buffer.Config{}, nil)
	p, _ := addProgram(t, core, 64)
	inj.Arm(core, Fault{Kind: KindBitFlip, r: 99999})
	_, err := core.Run(p)
	var ee *ECCError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want ECCError", err)
	}
	mem := core.Mem.Mem(isa.UB)
	if ee.Offset < 0 || ee.Offset >= len(mem) {
		t.Fatalf("flip offset %d out of UB range %d", ee.Offset, len(mem))
	}
	if mem[ee.Offset]&(1<<ee.Bit) == 0 {
		// UB starts zeroed and the flip targets a bit the program may not
		// rewrite; the reported bit must really be visible in memory.
		t.Fatalf("UB byte %d bit %d not flipped", ee.Offset, ee.Bit)
	}
}

func TestArmStuckPipeHangsUntilCancel(t *testing.T) {
	inj := New(Config{Seed: 3, Rate: 1}, obs.NewRegistry())
	core := aicore.New(buffer.Config{}, nil)
	p, _ := addProgram(t, core, 64)
	cancel := make(chan struct{})
	core.Cancel = cancel
	inj.Arm(core, Fault{Kind: KindStuckPipe, r: 777})
	done := make(chan error, 1)
	go func() {
		_, err := core.Run(p)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stuck-pipe run returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case err := <-done:
		var se *StuckPipeError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want StuckPipeError", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled stuck-pipe run never returned")
	}
}

func TestArmDroppedFlagDeadlocks(t *testing.T) {
	inj := New(Config{Seed: 4, Rate: 1}, obs.NewRegistry())
	core := aicore.New(buffer.Config{}, nil)
	p, _ := addProgram(t, core, 64)
	cancel := make(chan struct{})
	core.Cancel = cancel
	inj.Arm(core, Fault{Kind: KindDroppedFlag, r: 5})
	if core.ReplayWith == nil {
		t.Fatal("DroppedFlag did not install ReplayWith")
	}
	done := make(chan error, 1)
	go func() {
		_, err := core.ReplayWith(aicore.NewExecutable(p))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("dropped-flag run returned without cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel) // the watchdog reclaims the hung core
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Second):
		t.Fatal("cancelled dropped-flag run never returned")
	}
	var dl *aicore.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if !dl.HasFlag {
		t.Fatalf("deadlock %v does not name the unsatisfied flag", dl)
	}
	if got := inj.Injected(KindDroppedFlag); got != 1 {
		t.Fatalf("faults_injected{droppedflag} = %d, want 1", got)
	}
}

// TestArmDroppedFlagSinglePipeRunsClean: a single-pipe program has no
// set_flag to drop, so the armed hook disarms itself and runs the ordinary
// replay through Core.Replay — the call ops.Plan.Run makes — returning the
// clean result instead of calling itself again.
func TestArmDroppedFlagSinglePipeRunsClean(t *testing.T) {
	const n = 128
	singlePipe := func(core *aicore.Core) *cce.Program {
		src := core.Mem.Space(isa.GM).MustAlloc(n * fp16.Bytes)
		dst := core.Mem.Space(isa.GM).MustAlloc(n * fp16.Bytes)
		for i := 0; i < n; i++ {
			fp16.Store(core.Mem.Mem(isa.GM), src+i*fp16.Bytes, fp16.FromFloat32(float32(i)))
		}
		p := cce.New("gm-copy") // GM->GM copies all issue on MTE2
		p.EmitCopy(isa.GM, src, isa.GM, dst, n*fp16.Bytes)
		p.EmitCopy(isa.GM, dst, isa.GM, src, n*fp16.Bytes/2)
		return p
	}
	clean := aicore.New(buffer.Config{}, nil)
	wantSt, err := clean.Replay(aicore.NewExecutable(singlePipe(clean)))
	if err != nil {
		t.Fatal(err)
	}

	inj := New(Config{Seed: 4, Rate: 1}, obs.NewRegistry())
	core := aicore.New(buffer.Config{}, nil)
	exe := aicore.NewExecutable(singlePipe(core))
	inj.Arm(core, Fault{Kind: KindDroppedFlag, r: 5})
	type result struct {
		st  *aicore.Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := core.Replay(exe)
		done <- result{st, err}
	}()
	var got result
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("single-pipe dropped-flag replay never returned")
	}
	if got.err != nil {
		t.Fatalf("single-pipe dropped-flag replay failed: %v", got.err)
	}
	if *got.st != *wantSt {
		t.Errorf("stats %v, clean replay %v", got.st, wantSt)
	}
	if !bytes.Equal(core.Mem.Space(isa.GM).Data(), clean.Mem.Space(isa.GM).Data()) {
		t.Error("global memory differs from the clean replay")
	}
	if n := inj.Injected(KindDroppedFlag); n != 0 {
		t.Errorf("faults_injected{droppedflag} = %d, want 0: nothing to drop", n)
	}
	if core.ReplayWith != nil {
		t.Error("hook still armed after its single run")
	}
}

func TestIsInjected(t *testing.T) {
	cases := []struct {
		err  error
		kind Kind
		ok   bool
	}{
		{&TransientError{Instr: 3}, KindTransient, true},
		{&ECCError{Buf: isa.UB}, KindBitFlip, true},
		{&StuckPipeError{Pipe: isa.PipeVector}, KindStuckPipe, true},
		{errors.New("compile error"), KindNone, false},
	}
	for _, c := range cases {
		kind, ok := IsInjected(c.err)
		if kind != c.kind || ok != c.ok {
			t.Errorf("IsInjected(%v) = %v, %v; want %v, %v", c.err, kind, ok, c.kind, c.ok)
		}
	}
}
