package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"davinci/internal/chip"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/ref"
	"davinci/internal/tensor"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// sweepProg is one Table I layer under one paper variant, run as a single
// chip entry-point call on the whole layer tensor.
type sweepProg struct {
	layer int
	name  string // kernel/variant
	run   func(c *chip.Chip) ([]*tensor.Tensor, *chip.Stats, error)
	want  []*tensor.Tensor
	// tol is the largest elementwise difference from the golden model the
	// repository's own tests accept for this variant: 0 everywhere but
	// the Cube avgpool, which rounds once in fp32.
	tol float64
	// probe compiles the variant's plan and gives one tile of its inputs.
	probe probeCase
}

// capacitySkip names the one program of the sweep that cannot run: the
// VGG16-1 Cube avgpool needs 1 605 632 B of the 1 048 576 B L1.
func capacitySkip(l workloads.CNNLayer, name string) bool {
	return l.Network == "VGG16" && l.Index == 1 && name == "avgpool_fwd/cube"
}

// sweepLoad is the prepared Table I sweep: every layer x every paper
// variant, with inputs and golden outputs made from the seed.
type sweepLoad struct {
	limit time.Duration
	seed  int64
	progs []*sweepProg
	refs  []time.Duration
	// cycles is each program's chip makespan from the first set-up; every
	// later pass must reproduce it exactly.
	cycles []int64
}

// sweepTensors are one layer's inputs and golden outputs.
type sweepTensors struct {
	in, mask, gMax, gAvg             *tensor.Tensor
	maxOut, avgOut, maxBack, avgBack *tensor.Tensor
	refs                             []time.Duration
}

func prepareLayer(l workloads.CNNLayer, rng *rand.Rand) *sweepTensors {
	p := l.Params()
	oh, ow := p.OutDims()
	in := tiles(func() *tensor.Tensor { return randomTile(rng, l.H, l.W) })
	gMax := tiles(func() *tensor.Tensor { return intTile(rng, oh, ow, 5, 1) })
	gAvg := tiles(func() *tensor.Tensor { return intTile(rng, oh, ow, 8, p.Kh*p.Kw) })
	t := &sweepTensors{}
	mask := refTiles(&t.refs, func(i int) *tensor.Tensor { return ref.ArgmaxMask(in[i], p) })
	maxOut := refTiles(&t.refs, func(i int) *tensor.Tensor { return ref.MaxPoolForward(in[i], p) })
	avgOut := refTiles(&t.refs, func(i int) *tensor.Tensor { return ref.AvgPoolForward(in[i], p) })
	maxBack := refTiles(&t.refs, func(i int) *tensor.Tensor { return ref.MaxPoolBackward(mask[i], gMax[i], p, p.Ih, p.Iw) })
	avgBack := refTiles(&t.refs, func(i int) *tensor.Tensor { return ref.AvgPoolBackward(gAvg[i], p, p.Ih, p.Iw) })
	c1 := l.C1()
	t.in, t.mask, t.gMax, t.gAvg = tiled(c1, in), tiled(c1, mask), tiled(c1, gMax), tiled(c1, gAvg)
	t.maxOut, t.avgOut, t.maxBack, t.avgBack = tiled(c1, maxOut), tiled(c1, avgOut), tiled(c1, maxBack), tiled(c1, avgBack)
	return t
}

func prepareSweep(layers []workloads.CNNLayer, seed int64) *sweepLoad {
	w := &sweepLoad{seed: seed}
	spec := chip.New(chip.Config{}).Spec()
	ts := make([]*sweepTensors, len(layers))
	eachLayer(layers, func(i int) { ts[i] = prepareLayer(layers[i], layerRNG(seed, i)) })
	for li, l := range layers {
		t := ts[li]
		w.refs = append(w.refs, t.refs...)
		p := l.Params()
		in, mask, gMax, gAvg := t.in, t.mask, t.gMax, t.gAvg
		tile := tensor.SliceC1(in, 0, 0)
		add := func(name string, tol float64, want []*tensor.Tensor, run func(*chip.Chip) ([]*tensor.Tensor, *chip.Stats, error), compile func() (*ops.Plan, error), tileIn ...*tensor.Tensor) {
			if capacitySkip(l, name) {
				return
			}
			w.progs = append(w.progs, &sweepProg{layer: li, name: name, run: run, want: want, tol: tol,
				probe: probeCase{compile: compile, tile: tileIn}})
		}
		for _, v := range []string{"standard", "im2col", "expansion", "xysplit"} {
			add("maxpool_fwd/"+v, 0, []*tensor.Tensor{t.maxOut}, func(c *chip.Chip) ([]*tensor.Tensor, *chip.Stats, error) {
				out, st, err := c.MaxPoolForward(v, in, p)
				return []*tensor.Tensor{out}, st, err
			}, func() (*ops.Plan, error) { return ops.PlanMaxPoolForward(v, spec, p) }, tile)
		}
		for _, v := range []string{"standard", "im2col"} {
			add("maxpool_fwd_argmax/"+v, 0, []*tensor.Tensor{t.maxOut, mask}, func(c *chip.Chip) ([]*tensor.Tensor, *chip.Stats, error) {
				out, m, st, err := c.MaxPoolForwardArgmax(v, in, p)
				return []*tensor.Tensor{out, m}, st, err
			}, func() (*ops.Plan, error) { return ops.PlanMaxPoolForwardArgmax(v, spec, p) }, tile)
		}
		for _, v := range []string{"standard", "col2im"} {
			add("maxpool_bwd/"+v, 0, []*tensor.Tensor{t.maxBack}, func(c *chip.Chip) ([]*tensor.Tensor, *chip.Stats, error) {
				out, st, err := c.MaxPoolBackward(v, mask, gMax, p)
				return []*tensor.Tensor{out}, st, err
			}, func() (*ops.Plan, error) { return ops.PlanMaxPoolBackward(v, spec, p) },
				tensor.SliceOuter2(mask, 0, 0), tensor.SliceC1(gMax, 0, 0))
		}
		for _, v := range []string{"standard", "im2col", "cube"} {
			tol := 0.0
			if v == "cube" {
				tol = 0.05
			}
			add("avgpool_fwd/"+v, tol, []*tensor.Tensor{t.avgOut}, func(c *chip.Chip) ([]*tensor.Tensor, *chip.Stats, error) {
				out, st, err := c.AvgPoolForward(v, in, p)
				return []*tensor.Tensor{out}, st, err
			}, func() (*ops.Plan, error) { return ops.PlanAvgPoolForward(v, spec, p) }, tile)
		}
		for _, v := range []string{"standard", "col2im"} {
			col2im := v == "col2im"
			add("avgpool_bwd/"+v, 0, []*tensor.Tensor{t.avgBack}, func(c *chip.Chip) ([]*tensor.Tensor, *chip.Stats, error) {
				out, st, err := c.AvgPoolBackward(gAvg, p, col2im)
				return []*tensor.Tensor{out}, st, err
			}, func() (*ops.Plan, error) { return ops.PlanAvgPoolBackward(spec, p, col2im) }, tensor.SliceC1(gAvg, 0, 0))
		}
	}
	return w
}

func (w *sweepLoad) refTimes() []time.Duration { return w.refs }

// check reports whether a chip call produced the golden outputs within the
// program's tolerance.
func (pr *sweepProg) check(outs []*tensor.Tensor, st *chip.Stats, err error) bool {
	if err != nil || st == nil || len(outs) != len(pr.want) {
		return false
	}
	for i, got := range outs {
		want := pr.want[i]
		if got == nil || !tensor.SameShape(got, want) {
			return false
		}
		if pr.tol == 0 {
			if !bytes.Equal(got.Data, want.Data) {
				return false
			}
		} else if d := tensor.MaxAbsDiff(got, want); !(d <= pr.tol) {
			return false
		}
	}
	return true
}

// sweepSystem is one simulated chip that has run the sweep once.
type sweepSystem struct {
	w    *sweepLoad
	chip *chip.Chip
	reg  *obs.Registry
	rng  *rand.Rand
}

// setUp builds a fresh default chip and runs the first pass over every
// program, which compiles every plan and takes each plan's first replay
// through the timing scoreboard. The first set-up of a run records every
// program's makespan; later ones must reproduce it.
func (w *sweepLoad) setUp(tr *trace.Tracer) (system, error) {
	reg := obs.NewRegistry()
	c := chip.New(chip.Config{Metrics: reg, Trace: tr.Root()})
	first := w.cycles == nil
	for i, pr := range w.progs {
		outs, st, err := pr.run(c)
		if !pr.check(outs, st, err) {
			return nil, fmt.Errorf("set-up %s on layer %d: wrong output (err %v)", pr.name, pr.layer, err)
		}
		if first {
			w.cycles = append(w.cycles, st.Cycles)
		} else if st.Cycles != w.cycles[i] {
			return nil, fmt.Errorf("set-up %s on layer %d: %d cycles, earlier pass %d", pr.name, pr.layer, st.Cycles, w.cycles[i])
		}
	}
	return &sweepSystem{w: w, chip: c, reg: reg, rng: rand.New(rand.NewSource(w.seed ^ 0x5eed))}, nil
}

// simCycles is the sum of chip makespans over the fixed program list.
func (s *sweepSystem) simCycles() int64 {
	var sum int64
	for _, c := range s.w.cycles {
		sum += c
	}
	return sum
}

func (s *sweepSystem) registry() *obs.Registry { return s.reg }

// measure runs whole passes over the programs, one chip call at a time in
// a fresh seeded order each pass, starting passes until window has
// elapsed. Whole passes keep every program equally represented, so the
// latency quantiles describe the same population in every run. A call
// fails if its output is wrong or its makespan differs from the set-up
// pass.
func (s *sweepSystem) measure(window time.Duration, rec *recorder) *phase {
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < window {
		for _, i := range s.rng.Perm(len(s.w.progs)) {
			pr := s.w.progs[i]
			t := time.Now()
			sp := rec.start("bench_chip_call", 0, t)
			outs, st, err := pr.run(s.chip)
			lat := time.Since(t)
			sp.end(t.Add(lat))
			ph.attempted++
			if !pr.check(outs, st, err) || st.Cycles != s.w.cycles[i] {
				ph.failed++
				continue
			}
			ph.lat = append(ph.lat, lat)
			if lat <= s.w.limit {
				ph.good++
			}
		}
	}
	ph.elapsed = time.Since(start)
	// A pass takes seconds, too few per run for a steady per-pass
	// slowest call, so the tail is p90 over calls.
	ph.tailMs = quantile(durations(ph.lat, ms), 0.90)
	return ph
}

func (s *sweepSystem) close() error { return nil }

func (w *sweepLoad) probes() []probeCase {
	cases := make([]probeCase, len(w.progs))
	for i, pr := range w.progs {
		cases[i] = pr.probe
	}
	return cases
}
