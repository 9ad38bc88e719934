package chip

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/tensor"
	"davinci/internal/workloads"
)

// chaosLayer is a small Table I layer (InceptionV3 pool 3: 35x35x288,
// kernel 3, stride 2) — 18 C1 tiles, enough to exercise requeueing
// across cores without making hang-heavy tests slow.
func chaosLayer() (isa.ConvParams, int) {
	for _, l := range workloads.TableI {
		if l.Network == "InceptionV3" && l.Index == 3 {
			return l.Params(), l.C1()
		}
	}
	panic("InceptionV3 pool 3 missing from Table I")
}

func chaosInput(t *testing.T, p isa.ConvParams, n, c1 int) *tensor.Tensor {
	t.Helper()
	in := tensor.New(n, c1, p.Ih, p.Iw, tensor.C0)
	in.FillRandom(rand.New(rand.NewSource(7)), 4)
	return in
}

// TestChaosBitIdentity is the headline chaos test: a Table I layer with
// fault injection enabled at a fixed seed, every kind armed, retries
// guaranteed to succeed (MaxPerTile < MaxAttempts) and degradation off.
// The output must be bit-identical to the fault-free run.
func TestChaosBitIdentity(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 2, c1)

	clean := New(Config{Cores: 4})
	want, _, err := clean.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.New(faults.Config{Seed: 1, Rate: 0.5, MaxPerTile: 1}, nil)
	chaos := New(Config{Cores: 4, Resilience: Resilience{
		Enabled:     true,
		Injector:    inj,
		MaxAttempts: 3,
		// Generous budget: a clean attempt crossing the watchdog line
		// under -race would be falsely reclaimed as a hang.
		Watchdog:      500 * time.Millisecond,
		CoreFailLimit: 1 << 30, // never mark cores bad: retries must succeed
	}})
	got, st, err := chaos.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("chaos output differs from fault-free output")
	}
	if len(st.Degraded) != 0 {
		t.Fatalf("degradation off, yet %d tiles degraded", len(st.Degraded))
	}
	var injected int64
	for _, k := range faults.AllKinds() {
		injected += inj.Injected(k)
	}
	if injected == 0 {
		t.Fatal("chaos run at rate 0.5 injected nothing")
	}
	// The injector's counters and the executor's live in the same chip
	// snapshot (acceptance: counters appear in the obs.Registry snapshot).
	retries, ok := st.Metrics.CounterValue("chip_tile_retries")
	if !ok || retries == 0 {
		t.Fatalf("chip_tile_retries = %d, %v; want nonzero", retries, ok)
	}
	for _, name := range []string{"chip_tile_requeues", "chip_tiles_degraded", "chip_watchdog_trips", "chip_retry_backoff_cycles"} {
		if _, ok := st.Metrics.CounterValue(name); !ok {
			t.Errorf("%s missing from snapshot", name)
		}
	}
	if v, ok := st.Metrics.CounterValue("faults_injected", "kind", "transient"); !ok {
		t.Errorf("faults_injected{kind=transient} missing from snapshot (value %d)", v)
	}
}

// TestChaosDeterminism: two chips with identical chaos configs inject the
// same faults and produce identical outputs and fault counts.
func TestChaosDeterminism(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	run := func() (*tensor.Tensor, *faults.Injector) {
		inj := faults.New(faults.Config{Seed: 11, Rate: 0.4, MaxPerTile: 1}, nil)
		chaos := New(Config{Cores: 3, Resilience: Resilience{
			Enabled: true, Injector: inj, Watchdog: 500 * time.Millisecond,
			CoreFailLimit: 1 << 30,
		}})
		out, _, err := chaos.MaxPoolForward("im2col", in, p)
		if err != nil {
			t.Fatal(err)
		}
		return out, inj
	}
	outA, injA := run()
	outB, injB := run()
	if !bytes.Equal(outA.Data, outB.Data) {
		t.Fatal("same seed, different outputs")
	}
	for _, k := range faults.AllKinds() {
		if a, b := injA.Injected(k), injB.Injected(k); a != b {
			t.Fatalf("kind %v: %d vs %d faults across identical runs", k, a, b)
		}
	}
}

// TestWatchdogDroppedFlag: a program whose set_flag was dropped must trip
// the watchdog — not hang the test — and the resulting error must name
// the category, the blocked pipe and the unsatisfied wait_flag.
func TestWatchdogDroppedFlag(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	inj := faults.New(faults.Config{
		Seed: 5, Rate: 1, Kinds: []faults.Kind{faults.KindDroppedFlag}, MaxPerTile: 1 << 30,
	}, nil)
	chaos := New(Config{Cores: 2, Resilience: Resilience{
		Enabled: true, Injector: inj,
		MaxAttempts: 1, // no retries: the hang must surface as the run error
		Watchdog:    50 * time.Millisecond,
	}})
	_, _, err := chaos.MaxPoolForward("im2col", in, p)
	if err == nil {
		t.Fatal("dropped set_flag run succeeded")
	}
	if !errors.Is(err, ErrTileHang) {
		t.Fatalf("err %v does not match ErrTileHang", err)
	}
	var te *TileError
	if !errors.As(err, &te) {
		t.Fatalf("err %v carries no *TileError", err)
	}
	if !te.HasFlag {
		t.Fatalf("hang error %v does not identify the unsatisfied wait_flag", te)
	}
	if len(te.TraceTail) == 0 {
		t.Error("hang error carries no stall-trace tail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "wait_flag") || !strings.Contains(msg, "blocked") {
		t.Errorf("error text %q does not name the blocked pipe and flag", msg)
	}
	if v, _ := chaos.Metrics().Snapshot().CounterValue("chip_watchdog_trips"); v == 0 {
		t.Error("watchdog tripped but chip_watchdog_trips is zero")
	}
}

// TestRetryRequeueSuccess: every tile's first attempt wedges a pipe; the
// watchdog reclaims each core and the retry — on a fresh core, requeued
// away from the one that failed — succeeds. Exact counter arithmetic is
// deterministic because fault decisions are schedule-independent.
func TestRetryRequeueSuccess(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	tiles := int64(c1)
	inj := faults.New(faults.Config{
		Seed: 9, Rate: 1, Kinds: []faults.Kind{faults.KindStuckPipe}, MaxPerTile: 1,
	}, nil)
	// The watchdog must be long enough that a CLEAN retry attempt never
	// trips it (the counter arithmetic below assumes exactly one trip per
	// tile), yet short enough that 18 real hangs stay fast. 400ms under
	// -race leaves an order of magnitude of slack on both sides.
	chaos := New(Config{Cores: 4, Resilience: Resilience{
		Enabled: true, Injector: inj,
		MaxAttempts: 3, Watchdog: 400 * time.Millisecond,
		CoreFailLimit: 1 << 30,
	}})
	want, _, err := New(Config{Cores: 4}).MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := chaos.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("retried output differs from fault-free output")
	}
	if n := inj.Injected(faults.KindStuckPipe); n != tiles {
		t.Errorf("stuck-pipe faults = %d, want %d (one per tile)", n, tiles)
	}
	for name, want := range map[string]int64{
		"chip_tile_retries":   tiles,
		"chip_tile_requeues":  tiles,
		"chip_watchdog_trips": tiles,
		"chip_tiles_degraded": 0,
	} {
		if v, ok := st.Metrics.CounterValue(name); !ok || v != want {
			t.Errorf("%s = %d (present %v), want %d", name, v, ok, want)
		}
	}
	if v, _ := st.Metrics.CounterValue("chip_retry_backoff_cycles"); v != tiles*1024 {
		t.Errorf("chip_retry_backoff_cycles = %d, want %d", v, tiles*1024)
	}
}

// TestDegradationReport: every attempt of every tile faults, so each tile
// exhausts its retries and falls back to the golden model. The run still
// succeeds, the output matches the fault-free run (the golden model is
// bit-exact against the kernels), and the degraded tiles are reported.
func TestDegradationReport(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	inj := faults.New(faults.Config{
		Seed: 3, Rate: 1, Kinds: []faults.Kind{faults.KindTransient}, MaxPerTile: 1 << 30,
	}, nil)
	chaos := New(Config{Cores: 4, Resilience: Resilience{
		Enabled: true, Injector: inj, Degrade: true,
		MaxAttempts: 2, Watchdog: time.Second, CoreFailLimit: 1 << 30,
	}})
	want, _, err := New(Config{Cores: 4}).MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := chaos.MaxPoolForward("im2col", in, p)
	if err != nil {
		t.Fatalf("degradation enabled, yet the run failed: %v", err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("degraded output differs from fault-free output")
	}
	if len(st.Degraded) != c1 {
		t.Fatalf("Degraded reports %d tiles, want %d", len(st.Degraded), c1)
	}
	for i, d := range st.Degraded {
		if d.C1 != i {
			t.Fatalf("Degraded[%d] = tile (%d,%d); want sorted by (N,C1)", i, d.N, d.C1)
		}
		if d.Attempts != 2 {
			t.Errorf("tile (%d,%d): %d attempts recorded, want 2", d.N, d.C1, d.Attempts)
		}
		if d.LastErr == "" {
			t.Errorf("tile (%d,%d): empty LastErr", d.N, d.C1)
		}
	}
	if v, _ := st.Metrics.CounterValue("chip_tiles_degraded"); v != int64(c1) {
		t.Errorf("chip_tiles_degraded = %d, want %d", v, c1)
	}
}

// TestPanicRecovery drives runTiles directly with a closure that panics
// on the first attempt of one tile: the panic must become a typed,
// retryable error (satellite: recover worker panics), and the retry must
// complete the run.
func TestPanicRecovery(t *testing.T) {
	c := New(Config{Cores: 2, Resilience: Resilience{
		Enabled: true, Watchdog: time.Second, CoreFailLimit: 1 << 30,
	}})
	var panicked atomic.Bool
	results, st, err := c.runTiles(nil, 2, 2, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
		if ni == 0 && ci == 1 && panicked.CompareAndSwap(false, true) {
			panic("tile worker exploded")
		}
		return []*tensor.Tensor{tensor.New(1)}, &aicore.Stats{Cycles: 1}, nil
	}, nil)
	if err != nil {
		t.Fatalf("panic was not recovered into a retry: %v", err)
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	if total != 4 {
		t.Fatalf("%d tiles completed, want 4", total)
	}
	if v, _ := st.Metrics.CounterValue("chip_tile_panics"); v != 1 {
		t.Errorf("chip_tile_panics = %d, want 1", v)
	}
}

// TestPanicExhaustion: a tile that panics on every attempt fails the run
// with a typed ErrTilePanic carrying the core index, tile and stack —
// under the zero Resilience too, where the tile gets a single attempt.
func TestPanicExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  Resilience
	}{
		{"default", Resilience{}},
		{"resilient", Resilience{Enabled: true, MaxAttempts: 2, Watchdog: time.Second, CoreFailLimit: 1 << 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Cores: 2, Resilience: tc.res})
			_, _, err := c.runTiles(nil, 1, 2, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
				if ci == 0 {
					panic("always broken")
				}
				return []*tensor.Tensor{tensor.New(1)}, &aicore.Stats{}, nil
			}, nil)
			if !errors.Is(err, ErrTilePanic) {
				t.Fatalf("err %v does not match ErrTilePanic", err)
			}
			var te *TileError
			if !errors.As(err, &te) {
				t.Fatalf("err %v carries no *TileError", err)
			}
			if te.N != 0 || te.C1 != 0 {
				t.Errorf("panic attributed to tile (%d,%d), want (0,0)", te.N, te.C1)
			}
			if len(te.Stack) == 0 {
				t.Error("panic error carries no stack")
			}
		})
	}
}

// TestContextCancel: with Config.Context already cancelled, both the
// zero Resilience and the fault-tolerant executor abort instead of
// completing, reporting the abortion once with an error that wraps both
// context.Canceled and aicore.ErrInterrupted.
func TestContextCancel(t *testing.T) {
	p, c1 := chaosLayer()
	in := chaosInput(t, p, 1, c1)
	for _, tc := range []struct {
		name string
		res  Resilience
	}{
		{"default", Resilience{}},
		{"resilient", Resilience{Enabled: true, Watchdog: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c := New(Config{Cores: 2, Context: ctx, Resilience: tc.res})
			_, _, err := c.MaxPoolForward("im2col", in, p)
			if err == nil {
				t.Fatal("cancelled context, yet the run completed")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err %v does not wrap context.Canceled", err)
			}
			if !errors.Is(err, aicore.ErrInterrupted) {
				t.Errorf("err %v does not wrap aicore.ErrInterrupted", err)
			}
			if n := strings.Count(err.Error(), "aborted"); n != 1 {
				t.Errorf("abortion reported %d times in %v, want once", n, err)
			}
		})
	}
}

// TestFailFastCancelsInFlight: a deterministic tile failure cancels the
// other cores' in-flight work, with or without a caller context, and the
// joined error carries only the primary failure.
func TestFailFastCancelsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"context", context.Background()},
		{"no-context", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Cores: 2, Context: tc.ctx})
			boom := errors.New("deterministic tile bug")
			_, _, err := c.runTiles(nil, 2, 2, func(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
				if ni == 0 && ci == 0 {
					return nil, nil, boom
				}
				// Park until cancelled so the test observes the abort, not
				// a race; a nil Cancel would park forever.
				<-core.Cancel
				return nil, nil, aicore.ErrInterrupted
			}, nil)
			if !errors.Is(err, boom) {
				t.Fatalf("err %v does not surface the primary failure", err)
			}
			if errors.Is(err, aicore.ErrInterrupted) {
				t.Errorf("joined error %v leaks secondary interruption casualties", err)
			}
		})
	}
}

// coreRecorder is a runTiles closure that records the distinct cores it
// runs on. With failOnce set, tile (0,1)'s first attempt panics — a
// retryable failure — and the core of each of its attempts is kept.
type coreRecorder struct {
	failOnce bool

	mu        sync.Mutex
	seen      map[*aicore.Core]bool
	failedOn  *aicore.Core
	retriedOn *aicore.Core
}

func (r *coreRecorder) run(core *aicore.Core, ni, ci int) ([]*tensor.Tensor, *aicore.Stats, error) {
	r.mu.Lock()
	r.seen[core] = true
	fail := false
	if r.failOnce && ni == 0 && ci == 1 {
		if r.failedOn == nil {
			r.failedOn, fail = core, true
		} else {
			r.retriedOn = core
		}
	}
	r.mu.Unlock()
	if fail {
		panic("tile (0,1) fails once")
	}
	return []*tensor.Tensor{tensor.New(1)}, &aicore.Stats{Cycles: 1}, nil
}

// TestCoreReuse pins the executor's core lifecycle: each busy worker
// reuses one core across its tiles and takes a fresh core only after a
// failed attempt, and a retry never lands on the core that failed.
func TestCoreReuse(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		rec := &coreRecorder{seen: map[*aicore.Core]bool{}}
		if _, _, err := New(Config{Cores: 2}).runTiles(nil, 1, 8, rec.run, nil); err != nil {
			t.Fatal(err)
		}
		if len(rec.seen) != 2 {
			t.Errorf("2 cores over 8 tiles used %d distinct cores, want 2", len(rec.seen))
		}
	})
	t.Run("resilient", func(t *testing.T) {
		rec := &coreRecorder{failOnce: true, seen: map[*aicore.Core]bool{}}
		c := New(Config{Cores: 2, Resilience: Resilience{
			Enabled: true, Watchdog: time.Second, CoreFailLimit: 1 << 30,
		}})
		if _, _, err := c.runTiles(nil, 1, 8, rec.run, nil); err != nil {
			t.Fatal(err)
		}
		if rec.failedOn == nil || rec.retriedOn == nil {
			t.Fatal("tile (0,1) did not fail and retry")
		}
		if rec.retriedOn == rec.failedOn {
			t.Error("the retry ran on the core that failed")
		}
		if len(rec.seen) != 3 {
			t.Errorf("one failed attempt on 2 cores used %d distinct cores, want 3", len(rec.seen))
		}
	})
}

// TestValidateAtEntryPoints: malformed ConvParams are rejected before any
// plan compilation or core execution.
func TestValidateAtEntryPoints(t *testing.T) {
	c := New(Config{Cores: 1})
	in := tensor.New(1, 1, 8, 8, tensor.C0)
	bad := isa.ConvParams{Ih: 8, Iw: 8, Kh: 0, Kw: 3, Sh: 1, Sw: 1}
	if _, _, err := c.MaxPoolForward("im2col", in, bad); err == nil {
		t.Error("MaxPoolForward accepted Kh=0")
	}
	if _, _, err := c.AvgPoolForward("im2col", in, bad); err == nil {
		t.Error("AvgPoolForward accepted Kh=0")
	}
	if _, _, _, err := c.MaxPoolForwardArgmax("im2col", in, bad); err == nil {
		t.Error("MaxPoolForwardArgmax accepted Kh=0")
	}
	if _, _, err := c.AvgPoolBackward(in, bad, true); err == nil {
		t.Error("AvgPoolBackward accepted Kh=0")
	}
	w := tensor.New(16, 16, 3, 3)
	if _, _, err := c.Conv2D(in, w, bad); err == nil {
		t.Error("Conv2D accepted Kh=0")
	}
	if _, _, err := c.Conv2DBackwardData(in, w, bad, 16); err == nil {
		t.Error("Conv2DBackwardData accepted Kh=0")
	}
	if _, _, err := c.Conv2DBackwardWeights(in, in, bad, 16, 16); err == nil {
		t.Error("Conv2DBackwardWeights accepted Kh=0")
	}
	mask := tensor.New(1, 1, 3, 3, 16, tensor.C0)
	if _, _, err := c.MaxPoolBackward("col2im", mask, in, bad); err == nil {
		t.Error("MaxPoolBackward accepted Kh=0")
	}

	// Conv2DBackwardWeights validates x against grad and the layer before
	// any tile runs: a nil, non-5-d or mismatched x is a typed error, not
	// a panic.
	good := isa.ConvParams{Ih: 8, Iw: 8, Kh: 3, Kw: 3, Sh: 1, Sw: 1}
	grad := tensor.New(1, 1, 6, 6, tensor.C0)
	for name, x := range map[string]*tensor.Tensor{
		"nil":       nil,
		"4-d":       tensor.New(1, 8, 8, tensor.C0),
		"batch 2":   tensor.New(2, 1, 8, 8, tensor.C0),
		"7x8 image": tensor.New(1, 1, 7, 8, tensor.C0),
		"8x9 image": tensor.New(1, 1, 8, 9, tensor.C0),
		"C0 of 8":   tensor.New(1, 1, 8, 8, 8),
	} {
		if _, _, err := c.Conv2DBackwardWeights(grad, x, good, 16, 16); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Conv2DBackwardWeights with %s x: err = %v, want ErrInvalidInput", name, err)
		}
	}
	if _, _, err := c.Conv2DBackwardWeights(grad, tensor.New(1, 1, 8, 8, tensor.C0), good, 16, 16); err != nil {
		t.Errorf("Conv2DBackwardWeights rejected a matching x: %v", err)
	}

	// Every entry point checks every tensor against the layer (rank, C0,
	// batch, C1, H/W): a mismatch that would otherwise slice the wrong
	// data silently, panic in a tile or in the caller, or fail inside a
	// tile with an untyped error is ErrInvalidInput.
	img := tensor.New(1, 1, 8, 8, tensor.C0)
	goodMask := tensor.New(1, 1, 3, 3, good.PaddedPatches(), tensor.C0)
	for name, call := range map[string]func() error{
		"MaxPoolForward 9x9 input": func() error {
			_, _, err := c.MaxPoolForward("im2col", tensor.New(1, 1, 9, 9, tensor.C0), good)
			return err
		},
		"AvgPoolForward 7x8 input": func() error {
			_, _, err := c.AvgPoolForward("im2col", tensor.New(1, 1, 7, 8, tensor.C0), good)
			return err
		},
		"MaxPoolForwardArgmax nil input": func() error {
			_, _, _, err := c.MaxPoolForwardArgmax("im2col", nil, good)
			return err
		},
		"MaxPoolBackward nil mask": func() error {
			_, _, err := c.MaxPoolBackward("col2im", nil, grad, good)
			return err
		},
		"MaxPoolBackward 4x4 mask": func() error {
			_, _, err := c.MaxPoolBackward("col2im", tensor.New(1, 1, 3, 3, 16, tensor.C0), grad, good)
			return err
		},
		"MaxPoolBackward nil grad": func() error {
			_, _, err := c.MaxPoolBackward("col2im", goodMask, nil, good)
			return err
		},
		"MaxPoolBackward 5x5 grad": func() error {
			_, _, err := c.MaxPoolBackward("col2im", goodMask, tensor.New(1, 1, 5, 5, tensor.C0), good)
			return err
		},
		"MaxPoolBackward batch-2 grad": func() error {
			_, _, err := c.MaxPoolBackward("col2im", goodMask, tensor.New(2, 1, 6, 6, tensor.C0), good)
			return err
		},
		"AvgPoolBackward 5x5 grad": func() error {
			_, _, err := c.AvgPoolBackward(tensor.New(1, 1, 5, 5, tensor.C0), good, true)
			return err
		},
		"Conv2D 9x9 input": func() error {
			_, _, err := c.Conv2D(tensor.New(1, 1, 9, 9, tensor.C0), w, good)
			return err
		},
		"Conv2D C1 2 input": func() error {
			_, _, err := c.Conv2D(tensor.New(1, 2, 8, 8, tensor.C0), w, good)
			return err
		},
		"Conv2D nil weights": func() error {
			_, _, err := c.Conv2D(img, nil, good)
			return err
		},
		"Conv2DBackwardData 7x7 grad": func() error {
			_, _, err := c.Conv2DBackwardData(tensor.New(1, 1, 7, 7, tensor.C0), w, good, 16)
			return err
		},
		"Conv2DBackwardData 5x5 grad": func() error {
			_, _, err := c.Conv2DBackwardData(tensor.New(1, 1, 5, 5, tensor.C0), w, good, 16)
			return err
		},
		"Conv2DBackwardData 8-channel weights": func() error {
			_, _, err := c.Conv2DBackwardData(grad, tensor.New(16, 8, 3, 3), good, 16)
			return err
		},
		"Conv2DBackwardWeights 7x7 grad": func() error {
			_, _, err := c.Conv2DBackwardWeights(tensor.New(1, 1, 7, 7, tensor.C0), img, good, 16, 16)
			return err
		},
		"Conv2DBackwardWeights 5x5 grad": func() error {
			_, _, err := c.Conv2DBackwardWeights(tensor.New(1, 1, 5, 5, tensor.C0), img, good, 16, 16)
			return err
		},
	} {
		if err := call(); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
}
