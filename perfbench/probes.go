package main

import (
	"fmt"
	"runtime"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/fp16"
	"davinci/internal/ops"
	"davinci/internal/tensor"
)

// probeCase is one of a workload's plans, compiled fresh by the probes
// with the workload's own Spec, and one tile of the workload's inputs.
type probeCase struct {
	compile func() (*ops.Plan, error)
	tile    []*tensor.Tensor
}

// warmRuns is how many warm replays each plan gets timed over.
const warmRuns = 3

// probeResult holds the direct layer timings of the traced run.
type probeResult struct {
	compile    []time.Duration // ops: fresh compile per plan
	first      []time.Duration // ops: first Plan.Run (scoreboard path)
	warm       []time.Duration // ops: warm flat Plan.Run per tile
	warmAllocB []float64       // ops: bytes allocated per warm Plan.Run
	timeOnly   []time.Duration // aicore.Time per plan
	nsPerCycle []float64       // warm replay host ns per simulated cycle
	newCore    []time.Duration // aicore.New
	newCoreB   float64         // bytes allocated per aicore.New
	fp16MBs    map[string]float64
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// runProbes times direct calls into ops, aicore and fp16 on the workload's
// own plans and tiles, recording a span around each call in rec. It runs
// after the measured phases, so it moves no end-to-end metric.
func runProbes(cases []probeCase, rec *recorder) (*probeResult, error) {
	pr := &probeResult{}
	var tiles [][]byte
	seen := map[int]bool{} // one tile per distinct size keeps the fp16 probe short
	for i, c := range cases {
		t := time.Now()
		pl, err := c.compile()
		d := time.Since(t)
		pr.compile = append(pr.compile, d)
		rec.record("bench_probe_compile", t, d)
		if err != nil {
			return nil, fmt.Errorf("probe %d: compile: %w", i, err)
		}
		core := aicore.New(buffer.Config{}, nil)
		t = time.Now()
		_, st, err := pl.Run(core, c.tile...)
		d = time.Since(t)
		pr.first = append(pr.first, d)
		rec.record("bench_probe_first_run", t, d)
		if err != nil {
			return nil, fmt.Errorf("probe %d: first replay: %w", i, err)
		}
		a := allocated()
		var warm []float64
		for k := 0; k < warmRuns; k++ {
			t = time.Now()
			if _, _, err := pl.Run(core, c.tile...); err != nil {
				return nil, fmt.Errorf("probe %d: warm replay: %w", i, err)
			}
			d = time.Since(t)
			rec.record("bench_probe_warm_run", t, d)
			pr.warm = append(pr.warm, d)
			warm = append(warm, float64(d))
		}
		pr.warmAllocB = append(pr.warmAllocB, float64(allocated()-a)/warmRuns)
		if st.Cycles > 0 {
			pr.nsPerCycle = append(pr.nsPerCycle, median(warm)/float64(st.Cycles))
		}
		t = time.Now()
		aicore.Time(pl.Prog, nil, false)
		d = time.Since(t)
		pr.timeOnly = append(pr.timeOnly, d)
		rec.record("bench_probe_time", t, d)
		if d := c.tile[0].Data; !seen[len(d)] {
			seen[len(d)] = true
			tiles = append(tiles, d)
		}
	}

	const cores = 16
	a := allocated()
	for k := 0; k < cores; k++ {
		t := time.Now()
		runtime.KeepAlive(aicore.New(buffer.Config{}, nil))
		d := time.Since(t)
		pr.newCore = append(pr.newCore, d)
		rec.record("bench_probe_new_core", t, d)
	}
	pr.newCoreB = float64(allocated()-a) / cores

	pr.fp16MBs = fp16Rates(tiles)
	return pr, nil
}

// fp16Rates times the fp16 slice kernels over the workload's tiles, each
// tile against its own reversal so both operands are real data, and
// returns output megabytes per second for each kernel.
func fp16Rates(tiles [][]byte) map[string]float64 {
	type pair struct{ a, b, dst []byte }
	var pairs []pair
	var floats [][]float32
	for _, t := range tiles {
		b := make([]byte, len(t))
		for i := 0; i+1 < len(t); i += 2 {
			j := len(t) - 2 - i
			b[i], b[i+1] = t[j], t[j+1]
		}
		pairs = append(pairs, pair{t, b, make([]byte, len(t))})
		floats = append(floats, fp16.DecodeSlice(t))
	}
	const minTime = 50 * time.Millisecond
	rate := func(f func() int) float64 {
		var bytes int
		start := time.Now()
		for time.Since(start) < minTime {
			bytes += f()
		}
		return float64(bytes) / 1e6 / time.Since(start).Seconds()
	}
	slice := func(k func(dst, a, b []byte)) func() int {
		return func() int {
			n := 0
			for _, p := range pairs {
				k(p.dst, p.a, p.b)
				n += len(p.dst)
			}
			return n
		}
	}
	return map[string]float64{
		"add": rate(slice(fp16.AddSlice)),
		"max": rate(slice(fp16.MaxSlice)),
		"mul": rate(slice(fp16.MulSlice)),
		"encode": rate(func() int {
			n := 0
			for _, f := range floats {
				n += len(fp16.EncodeSlice(f))
			}
			return n
		}),
	}
}
