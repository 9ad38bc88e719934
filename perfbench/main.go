// Command perfbench is the repository's benchmark. It runs one named
// workload against the real program — the serving fleet (internal/serve)
// or the simulated chip (internal/chip) — for a fixed time, checks every
// output against the golden model (internal/ref), and prints its metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) measures the workload untraced and then with the program's
// spans on, times direct probes of each layer, and reports the per-layer
// metrics. README.md lists every workload and metric and which end-to-end
// metric each layer metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-open --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"davinci/internal/obs"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// prepared is a workload whose inputs and golden outputs have been made
// from the seed.
type prepared interface {
	// setUp builds a fresh system and makes it ready to measure; it is
	// what setup_s times. tr, when non-nil, receives the program's spans.
	setUp(tr *trace.Tracer) (system, error)
	// refTimes are the golden-model timings taken while preparing.
	refTimes() []time.Duration
	// probes lists the workload's plans and tiles for the layer probes.
	probes() []probeCase
}

// system is a set-up program instance.
type system interface {
	// measure runs the workload's traffic for window; rec, when non-nil,
	// receives the benchmark's own spans.
	measure(window time.Duration, rec *recorder) *phase
	// simCycles is the deterministic simulated-cycle total of the
	// workload's fixed program list.
	simCycles() int64
	registry() *obs.Registry
	// close stops the system and checks its conservation invariants.
	close() error
}

// phase is what one measured phase saw.
type phase struct {
	attempted, failed int64
	good              int64 // correct and within the latency limit
	lat               []time.Duration
	elapsed           time.Duration
	// tailMs is the tail latency in ms, taken where it is steady for the
	// workload's shape (README.md, "End-to-end metrics").
	tailMs float64
	// Serving only: how late each send ran, Submit call time, queue wait,
	// service time (latency minus wait) and batch size per request.
	late, submit, wait, service []time.Duration
	batch                       []float64

	rt                             runtimeDelta
	misses, tiles, instrs, gmBytes int64
}

// workload is one named traffic mix.
type workload struct {
	// setups is how many fresh set-ups an untraced run times; setup_s is
	// their median.
	setups  int
	layers  []workloads.CNNLayer
	prepare func(layers []workloads.CNNLayer, seed int64) prepared
}

// Latency limits for goodput_ops_s, per workload.
const (
	openLimit  = 250 * time.Millisecond
	burstLimit = 5 * time.Second
	sweepLimit = 2 * time.Second
)

// openRate is serve-open's offered load, half the Table I mix's knee on
// the default 2-chip fleet with two host CPUs.
const openRate = 20.0

// burstSize is serve-burst's requests per burst.
const burstSize = 192

var benchWorkloads = map[string]workload{
	"serve-open": {setups: 5, layers: workloads.TableI, prepare: func(layers []workloads.CNNLayer, seed int64) prepared {
		w := prepareServe(layers, seed)
		w.open, w.rate, w.limit = true, openRate, openLimit
		return w
	}},
	"serve-burst": {setups: 5, layers: workloads.InceptionV3Fig7(), prepare: func(layers []workloads.CNNLayer, seed int64) prepared {
		w := prepareServe(layers, seed)
		w.burst, w.limit = burstSize, burstLimit
		return w
	}},
	"sweep-tablei": {setups: 2, layers: workloads.TableI, prepare: func(layers []workloads.CNNLayer, seed int64) prepared {
		w := prepareSweep(layers, seed)
		w.limit = sweepLimit
		return w
	}},
}

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	out        string
	cpuProfile string
	memProfile string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var traced int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: serve-open, serve-burst or sweep-tablei")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs and request mix are made from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per run, in seconds")
	fs.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "directory the traced run writes its spans to (none when empty)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of set-up and measurement to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file at the end of the run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := benchWorkloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if traced != 0 && traced != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = traced == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "env: workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d gomaxprocs=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, notes, err := measureWorkload(o)
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// measureWorkload prepares the workload and runs it untraced or traced.
// A non-nil result with an error is a run whose checks failed.
func measureWorkload(o options) (*result, []string, error) {
	w := benchWorkloads[o.workload]
	p := w.prepare(w.layers, o.seed)
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	window := time.Duration(o.seconds * float64(time.Second))
	var res *result
	var notes []string
	var err error
	if o.trace {
		res, notes, err = tracedRun(p, window, o)
	} else {
		res, notes, err = untracedRun(p, w.setups, window)
	}
	if o.memProfile != "" {
		if perr := writeHeapProfile(o.memProfile); perr != nil && err == nil {
			err = perr
		}
	}
	return res, notes, err
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

// timedSetUp builds one fresh system after a collection, so garbage from
// earlier set-ups does not land in this one's time.
func timedSetUp(p prepared, tr *trace.Tracer) (system, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	s, err := p.setUp(tr)
	return s, time.Since(start), err
}

// measurePhase runs one measured phase and records what the runtime and
// the program's own counters did during it.
func measurePhase(s system, window time.Duration, rec *recorder) *phase {
	runtime.GC()
	snap0, rt0 := s.registry().Snapshot(), readRuntime()
	ph := s.measure(window, rec)
	rt1, snap1 := readRuntime(), s.registry().Snapshot()
	ph.rt = rt0.to(rt1)
	delta := func(name string) int64 {
		a, _ := snap0.CounterValue(name)
		b, _ := snap1.CounterValue(name)
		return b - a
	}
	ph.misses = delta("plan_cache_misses")
	ph.tiles = delta("chip_tiles")
	ph.instrs = delta("chip_tile_instrs")
	ph.gmBytes = delta("chip_bytes_in") + delta("chip_bytes_out")
	return ph
}

// untracedRun times setups fresh set-ups, measures the last one for
// window and reports the end-to-end metrics.
func untracedRun(p prepared, setups int, window time.Duration) (*result, []string, error) {
	var times []float64
	var s system
	sim := int64(-1)
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = timedSetUp(p, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, secs(d))
		if sim >= 0 && s.simCycles() != sim {
			s.close()
			return nil, nil, fmt.Errorf("set-up %d: %d simulated cycles, earlier set-up %d", i, s.simCycles(), sim)
		}
		sim = s.simCycles()
	}
	ph := measurePhase(s, window, nil)
	closeErr := s.close()

	lat := durations(ph.lat, ms)
	n := len(lat)
	ops := float64(max(ph.attempted, 1))
	res := &result{
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(times), "s"},
			"latency_p50_ms":   {quantile(lat, 0.50), "ms"},
			"latency_tail_ms":  {ph.tailMs, "ms"},
			"throughput_ops_s": {float64(n) / secs(ph.elapsed), "ops/s"},
			"goodput_ops_s":    {float64(ph.good) / secs(ph.elapsed), "ops/s"},
			"alloc_mb_per_op":  {float64(ph.rt.allocBytes) / 1e6 / ops, "MB"},
			"peak_rss_mb":      {peakRSSMB(), "MB"},
			"sim_cycles":       {float64(sim), "cycles"},
		},
	}
	notes := []string{fmt.Sprintf("samples: %d latency samples; %d attempted, %d failed; %d plan misses while measuring",
		n, ph.attempted, ph.failed, ph.misses), fmt.Sprintf("setups: %.3f s", times)}
	var err error
	switch {
	case closeErr != nil:
		err = closeErr
	case ph.misses != 0:
		err = fmt.Errorf("%d plan-cache misses while measuring; set-up left plans cold", ph.misses)
	case ph.attempted == 0:
		err = errors.New("no operation completed in the measured window")
	}
	res.Correct = err == nil && ph.failed == 0
	return res, notes, err
}

// tracedRun measures the workload untraced for half the window, then on a
// fresh system with the program's spans on for the other half, then times
// the layer probes, and reports the per-layer metrics.
func tracedRun(p prepared, window time.Duration, o options) (*result, []string, error) {
	half := window / 2
	plain, _, err := timedSetUp(p, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	a := measurePhase(plain, half, nil)
	if err := plain.close(); err != nil {
		return nil, nil, err
	}

	tr := trace.New()
	rec := &recorder{}
	traced, _, err := timedSetUp(p, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	b := measurePhase(traced, half, rec)
	closeErr := traced.close()

	probes, err := runProbes(p.probes(), rec)
	if err != nil {
		return nil, nil, err
	}
	spans := tr.Finished()
	dropped, active := tr.Dropped(), tr.Active()+rec.activeCount()
	if o.out != "" {
		stem := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		if err := writeSpans(o.out+"/spans", stem, spans, rec); err != nil {
			return nil, nil, err
		}
	}

	ix := indexSpans(spans)
	ops := float64(max(a.attempted, 1))
	overhead := 0.0
	if la, lb := mean(durations(a.lat, ms)), mean(durations(b.lat, ms)); la > 0 {
		overhead = lb/la - 1
	}
	m := map[string]metric{
		"loadgen.late_p99_ms":          {quantile(durations(a.late, ms), 0.99), "ms"},
		"serve.submit_p50_us":          {quantile(durations(a.submit, us), 0.50), "us"},
		"serve.submit_p99_us":          {quantile(durations(a.submit, us), 0.99), "us"},
		"serve.queue_wait_p50_ms":      {quantile(durations(a.wait, ms), 0.50), "ms"},
		"serve.queue_wait_p99_ms":      {quantile(durations(a.wait, ms), 0.99), "ms"},
		"serve.service_p50_ms":         {quantile(durations(a.service, ms), 0.50), "ms"},
		"serve.service_p99_ms":         {quantile(durations(a.service, ms), 0.99), "ms"},
		"serve.batch_size_mean":        {mean(a.batch), "count"},
		"serve.batch_self_ms_p50":      {quantile(durations(ix.selfTimes("serve_batch", "chip_run"), ms), 0.50), "ms"},
		"ops.plan_misses":              {float64(a.misses + b.misses), "count"},
		"ops.compile_ms_p50":           {quantile(durations(probes.compile, ms), 0.50), "ms"},
		"ops.compile_s_total":          {sumSecs(probes.compile), "s"},
		"ops.plan_lookup_us_p50":       {quantile(durations(ix.durations("plan_lookup"), us), 0.50), "us"},
		"ops.replay_first_us_p50":      {quantile(durations(probes.first, us), 0.50), "us"},
		"ops.replay_warm_us_p50":       {quantile(durations(probes.warm, us), 0.50), "us"},
		"ops.replay_alloc_kb":          {median(probes.warmAllocB) / 1e3, "KB"},
		"chip.run_self_ms_p50":         {quantile(durations(ix.selfTimes("chip_run", "plan_lookup", "tile_exec"), ms), 0.50), "ms"},
		"chip.tile_exec_us_p50":        {quantile(durations(ix.durations("tile_exec"), us), 0.50), "us"},
		"chip.tile_exec_us_p99":        {quantile(durations(ix.durations("tile_exec"), us), 0.99), "us"},
		"chip.tiles_per_op":            {float64(a.tiles) / ops, "count"},
		"chip.sim_instrs_per_op":       {float64(a.instrs) / ops, "count"},
		"chip.gm_mb_per_op":            {float64(a.gmBytes) / 1e6 / ops, "MB"},
		"aicore.new_us":                {quantile(durations(probes.newCore, us), 0.50), "us"},
		"aicore.new_kb":                {probes.newCoreB / 1e3, "KB"},
		"aicore.time_us_p50":           {quantile(durations(probes.timeOnly, us), 0.50), "us"},
		"aicore.host_ns_per_sim_cycle": {median(probes.nsPerCycle), "ns"},
		"fp16.add_mb_s":                {probes.fp16MBs["add"], "MB/s"},
		"fp16.max_mb_s":                {probes.fp16MBs["max"], "MB/s"},
		"fp16.mul_mb_s":                {probes.fp16MBs["mul"], "MB/s"},
		"fp16.encode_mb_s":             {probes.fp16MBs["encode"], "MB/s"},
		"ref.check_ms_p50":             {quantile(durations(p.refTimes(), ms), 0.50), "ms"},
		"gc.cpu_frac":                  {a.rt.gcCPUFrac, "fraction"},
		"gc.cycles_per_op":             {float64(a.rt.gcCycles) / ops, "count"},
		"trace.overhead_frac":          {overhead, "fraction"},
		"trace.spans_dropped":          {float64(dropped), "count"},
		"trace.spans_active_end":       {float64(active), "count"},
		"fail_frac":                    {float64(a.failed+b.failed) / float64(max(a.attempted+b.attempted, 1)), "fraction"},
		"latency_samples":              {float64(len(a.lat)), "count"},
	}
	res := &result{Attempted: a.attempted + b.attempted, Failed: a.failed + b.failed, Metrics: m}
	notes := []string{fmt.Sprintf("samples: %d untraced and %d traced latency samples; %d program spans, %d benchmark spans",
		len(a.lat), len(b.lat), len(spans), len(rec.spans))}
	switch {
	case closeErr != nil:
		err = closeErr
	case a.misses+b.misses != 0:
		err = fmt.Errorf("%d plan-cache misses while measuring; set-up left plans cold", a.misses+b.misses)
	case dropped != 0 || active != 0:
		err = fmt.Errorf("trace: %d spans dropped, %d still active at the end", dropped, active)
	case a.attempted == 0 || b.attempted == 0:
		err = errors.New("no operation completed in a measured window")
	}
	res.Correct = err == nil && res.Failed == 0
	return res, notes, err
}

func sumSecs(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return secs(t)
}
