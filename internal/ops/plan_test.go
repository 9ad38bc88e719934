package ops

import (
	"bytes"
	"sync"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/faults"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/obs"
	"davinci/internal/ref"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// planCases enumerates one cached-plan constructor per registry variant
// (every Maxpool forward, argmax and backward variant, every Avgpool
// forward variant including the Cube mapping, both Avgpool backward
// merges, and the three convolution kernels), with ready-to-run inputs.
func planCases(t *testing.T, p isa.ConvParams) []struct {
	name   string
	get    func(c *PlanCache, spec Spec) (*Plan, error)
	inputs []*tensor.Tensor
} {
	t.Helper()
	in := randTile(7, p)
	mask := ref.ArgmaxMask(in, p)
	oh, ow := p.OutDims()
	grad := tensor.New(1, 1, oh, ow, tensor.C0)
	for i := 0; i < grad.Len(); i++ {
		grad.SetFlat(i, fp16.FromFloat64(float64(i%5)))
	}
	w := tensor.New(tensor.C0, tensor.C0, p.Kh, p.Kw)
	w.Fill(fp16.FromFloat64(0.25))

	type planCase = struct {
		name   string
		get    func(c *PlanCache, spec Spec) (*Plan, error)
		inputs []*tensor.Tensor
	}
	var cases []planCase
	for _, v := range []string{"standard", "im2col", "expansion", "xysplit"} {
		variant := v
		cases = append(cases, planCase{"maxpool_fwd_" + variant,
			func(c *PlanCache, spec Spec) (*Plan, error) { return c.MaxPoolForward(trace.Ctx{}, variant, spec, p) },
			[]*tensor.Tensor{in}})
	}
	for _, v := range []string{"standard", "im2col"} {
		variant := v
		cases = append(cases, planCase{"maxpool_fwd_argmax_" + variant,
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.MaxPoolForwardArgmax(trace.Ctx{}, variant, spec, p)
			},
			[]*tensor.Tensor{in}})
		cases = append(cases, planCase{"maxpool_bwd_" + map[string]string{"standard": "standard", "im2col": "col2im"}[variant],
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.MaxPoolBackward(trace.Ctx{}, map[string]string{"standard": "standard", "im2col": "col2im"}[variant], spec, p)
			},
			[]*tensor.Tensor{mask, grad}})
	}
	for _, v := range []string{"standard", "im2col", "cube"} {
		variant := v
		cases = append(cases, planCase{"avgpool_fwd_" + variant,
			func(c *PlanCache, spec Spec) (*Plan, error) { return c.AvgPoolForward(trace.Ctx{}, variant, spec, p) },
			[]*tensor.Tensor{in}})
	}
	for _, col2im := range []bool{false, true} {
		useCol2im := col2im
		name := "avgpool_bwd_standard"
		if useCol2im {
			name = "avgpool_bwd_col2im"
		}
		cases = append(cases, planCase{name,
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.AvgPoolBackward(trace.Ctx{}, spec, p, useCol2im)
			},
			[]*tensor.Tensor{grad}})
	}
	cases = append(cases,
		planCase{"conv2d_im2col_cube",
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.Conv2D(trace.Ctx{}, spec, p, tensor.C0, tensor.C0)
			},
			[]*tensor.Tensor{in, w}},
		planCase{"conv2d_bwd_data",
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.Conv2DBackwardData(trace.Ctx{}, spec, p, tensor.C0, tensor.C0)
			},
			[]*tensor.Tensor{grad, w}},
		planCase{"conv2d_bwd_weights",
			func(c *PlanCache, spec Spec) (*Plan, error) {
				return c.Conv2DBackwardWeights(trace.Ctx{}, spec, p, tensor.C0, tensor.C0)
			},
			[]*tensor.Tensor{grad, in}},
	)
	return cases
}

// TestPlanReplayConcurrent replays one cached plan per registry variant
// from many goroutines on separate cores (run under -race) and checks
// every replay is bit-identical — outputs and cycle counts — to a cold
// compile-and-run of the same kernel. It also pins the cache accounting:
// exactly one miss compiles, every other lookup hits.
func TestPlanReplayConcurrent(t *testing.T) {
	p := isa.ConvParams{Ih: 20, Iw: 20, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	spec := Spec{}
	const goroutines, iters = 8, 4

	for _, tc := range planCases(t, p) {
		t.Run(tc.name, func(t *testing.T) {
			// Cold path: a fresh cache, one compile, one first replay.
			cold, err := tc.get(NewPlanCache(), spec)
			if err != nil {
				t.Fatal(err)
			}
			baseOuts, baseStats, err := cold.Run(newTestCore(), tc.inputs...)
			if err != nil {
				t.Fatal(err)
			}

			shared := NewPlanCache()
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*iters)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					core := aicore.New(buffer.Config{}, nil)
					for it := 0; it < iters; it++ {
						pl, err := tc.get(shared, spec)
						if err != nil {
							errs <- err
							return
						}
						outs, st, err := pl.Run(core, tc.inputs...)
						if err != nil {
							errs <- err
							return
						}
						if st.Cycles != baseStats.Cycles {
							t.Errorf("replay cycles %d != cold cycles %d", st.Cycles, baseStats.Cycles)
							return
						}
						for i := range outs {
							if !bytes.Equal(outs[i].Data, baseOuts[i].Data) {
								t.Errorf("replay output %d not bit-identical to cold run", i)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := shared.Stats()
			if st.Compiled != 1 || st.Misses != 1 {
				t.Errorf("cache compiled %d plans on %d misses, want 1 and 1", st.Compiled, st.Misses)
			}
			if st.Hits != goroutines*iters-1 {
				t.Errorf("cache hits = %d, want %d", st.Hits, goroutines*iters-1)
			}
		})
	}
}

// TestPlanCacheKeyCollision checks that plans for the same kernel but
// different shape parameters, auxiliary channel counts, or buffer specs
// never alias in the cache, and that each replays to its own reference
// result.
func TestPlanCacheKeyCollision(t *testing.T) {
	c := NewPlanCache()
	spec := Spec{}
	p1 := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	p2 := isa.ConvParams{Ih: 12, Iw: 10, Kh: 3, Kw: 3, Sh: 2, Sw: 2}

	plA, err := c.MaxPoolForward(trace.Ctx{}, "im2col", spec, p1)
	if err != nil {
		t.Fatal(err)
	}
	plB, err := c.MaxPoolForward(trace.Ctx{}, "im2col", spec, p2)
	if err != nil {
		t.Fatal(err)
	}
	if plA == plB {
		t.Fatal("plans for different ConvParams share one cache entry")
	}
	if plA.Params != p1 || plB.Params != p2 {
		t.Errorf("plan params swapped: %+v / %+v", plA.Params, plB.Params)
	}
	// Each plan must still compute its own shape, not the other's.
	for _, pc := range []struct {
		pl *Plan
		p  isa.ConvParams
	}{{plA, p1}, {plB, p2}} {
		in := randTile(3, pc.p)
		outs, _, err := pc.pl.Run(newTestCore(), in)
		if err != nil {
			t.Fatal(err)
		}
		if tensor.MaxAbsDiff(outs[0], ref.MaxPoolForward(in, pc.p)) != 0 {
			t.Errorf("plan for %+v diverges from reference after cache round-trip", pc.p)
		}
	}
	// Same params, different buffer spec: a shrunken UB forces a different
	// schedule, so the key must include the Spec.
	small := Spec{Buffers: buffer.Config{UBSize: 16 << 10}}
	plSmall, err := c.MaxPoolForward(trace.Ctx{}, "im2col", small, p2)
	if err != nil {
		t.Fatal(err)
	}
	if plSmall == plB {
		t.Error("plans for different buffer specs share one cache entry")
	}
	// Same params, different logical channels (the Aux key ints).
	conv16, err := c.Conv2D(trace.Ctx{}, spec, p1, tensor.C0, tensor.C0)
	if err != nil {
		t.Fatal(err)
	}
	conv32, err := c.Conv2D(trace.Ctx{}, spec, p1, 2*tensor.C0, tensor.C0)
	if err != nil {
		t.Fatal(err)
	}
	if conv16 == conv32 {
		t.Error("conv plans for different Co share one cache entry")
	}
	if st := c.Stats(); st.Compiled != 5 || st.Hits != 0 {
		t.Errorf("cache stats %+v, want 5 distinct compilations and 0 hits", st)
	}
	// A zero-valued spec and the explicit Ascend defaults normalize to the
	// same key: this lookup must hit.
	if _, err := c.MaxPoolForward(trace.Ctx{}, "im2col", Spec{Buffers: buffer.Config{}.Normalized()}, p1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("normalized-spec lookup missed: %+v", st)
	}
}

// TestTraceOneTimelinePerRun pins the replay contract for tracing cores:
// Replay resets the attached trace, so repeated Plan.Run calls yield one
// timeline each instead of accumulating entries without bound.
func TestTraceOneTimelinePerRun(t *testing.T) {
	p := isa.ConvParams{Ih: 12, Iw: 12, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(5, p)
	pl, err := PlanMaxPoolForward("im2col", Spec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	core := newTestCore()
	core.Trace = &aicore.Trace{}
	var first int
	for run := 1; run <= 3; run++ {
		if _, _, err := pl.Run(core, in); err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			first = len(core.Trace.Entries)
			if first == 0 {
				t.Fatal("traced run recorded no entries")
			}
			continue
		}
		if got := len(core.Trace.Entries); got != first {
			t.Fatalf("run %d: %d trace entries, want %d (trace accumulating across replays)", run, got, first)
		}
	}
}

// TestArmDroppedFlagSinglePipePlan runs a dropped-flag fault through
// Plan.Run on a single-pipe plan: with no set_flag to drop, the hook must
// fall through to the ordinary replay once and return the clean result.
func TestArmDroppedFlagSinglePipePlan(t *testing.T) {
	const n = 256
	b := newPlanner("gm_copy", Spec{}, isa.ConvParams{})
	src, err := b.input(n)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := b.core.Mem.Space(isa.GM).Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	b.output(dst, n/fp16.Bytes)
	prog := cce.New("gm_copy") // a GM->GM copy issues on MTE2 alone
	prog.EmitCopy(isa.GM, src, isa.GM, dst, n)
	pl, err := b.seal(prog, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(n / fp16.Bytes)
	for i := 0; i < in.Len(); i++ {
		in.SetFlat(i, fp16.FromFloat32(float32(i)))
	}

	core := newTestCore()
	faults.New(faults.Config{Seed: 1, Rate: 1}, nil).Arm(core, faults.Fault{Kind: faults.KindDroppedFlag})
	outs, st, err := pl.Run(core, in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outs[0].Data, in.Data) {
		t.Error("single-pipe plan output differs from its input")
	}
	if want := aicore.Time(prog, nil, false); st.Cycles != want {
		t.Errorf("cycles = %d, want %d", st.Cycles, want)
	}
}

// TestPlanCacheMetrics checks that a cache built on a shared registry
// publishes its hit/miss/compile counters there, in agreement with the
// CacheStats view.
func TestPlanCacheMetrics(t *testing.T) {
	r := obs.NewRegistry()
	c := NewPlanCacheOn(r)
	p := isa.ConvParams{Ih: 8, Iw: 8, Kh: 2, Kw: 2, Sh: 2, Sw: 2}
	if _, err := c.MaxPoolForward(trace.Ctx{}, "im2col", Spec{}, p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MaxPoolForward(trace.Ctx{}, "im2col", Spec{}, p); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"plan_cache_hits": 1, "plan_cache_misses": 1, "plan_cache_compiled": 1}
	snap := r.Snapshot()
	for _, m := range snap.Counters {
		if v, ok := want[m.Name]; ok {
			if m.Value != v {
				t.Errorf("%s = %d, want %d", m.Name, m.Value, v)
			}
			delete(want, m.Name)
		}
	}
	for name := range want {
		t.Errorf("counter %s missing from registry snapshot", name)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Compiled != 1 {
		t.Errorf("CacheStats %+v disagrees with registry", st)
	}
}

// BenchmarkPlanCache compares host wall time of the cold path (compile the
// schedule, then run) against cached replay of one plan, on the largest
// InceptionV3 Maxpool layer of the paper (147x147, kernel 3, stride 2) —
// the CI smoke step runs it with -benchtime=1x.
func BenchmarkPlanCache(b *testing.B) {
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(42, p)
	spec := Spec{}

	b.Run("cold-compile", func(b *testing.B) {
		core := newTestCore()
		for i := 0; i < b.N; i++ {
			pl, err := PlanMaxPoolForward("im2col", spec, p)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pl.Run(core, in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-replay", func(b *testing.B) {
		cache := NewPlanCache()
		core := newTestCore()
		pl, err := cache.MaxPoolForward(trace.Ctx{}, "im2col", spec, p)
		if err != nil {
			b.Fatal(err)
		}
		// The first Run builds the plan's flat trace and static schedule;
		// run it untimed so the loop measures steady-state replay.
		if _, _, err := pl.Run(core, in); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl, err := cache.MaxPoolForward(trace.Ctx{}, "im2col", spec, p)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pl.Run(core, in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPlanCacheSpeedup is the acceptance check behind BenchmarkPlanCache:
// cached replay of the 147x147 layer must beat compile-per-call host wall
// time by at least 2x (in practice the margin is much larger, since replay
// skips emission, validation, flattening and the hazard scoreboard).
func TestPlanCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the compile/replay cost ratio")
	}
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	in := randTile(42, p)
	spec := Spec{}
	core := newTestCore()
	const iters = 5

	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < iters; j++ {
				pl, err := PlanMaxPoolForward("im2col", spec, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := pl.Run(core, in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	pl, err := NewPlanCache().MaxPoolForward(trace.Ctx{}, "im2col", spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.Run(core, in); err != nil { // build the flat trace and schedule
		t.Fatal(err)
	}
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < iters; j++ {
				if _, _, err := pl.Run(core, in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	t.Logf("cold %.2fms vs cached %.2fms per %d runs (%.1fx)", coldNs/1e6, warmNs/1e6, iters, coldNs/warmNs)
	if coldNs < 2*warmNs {
		t.Errorf("cached replay only %.2fx faster than cold compile, want >= 2x", coldNs/warmNs)
	}
}
