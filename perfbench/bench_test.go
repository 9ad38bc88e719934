package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// tinyLayers stand in for Table I so every workload runs in well under a
// second: one overlapping k3s2 layer with two C1 slices and one k2s2 layer.
var tinyLayers = []workloads.CNNLayer{
	{Network: "Tiny", Index: 1, H: 17, W: 17, C: 32, Kernel: 3, Stride: 2},
	{Network: "Tiny", Index: 2, H: 12, W: 12, C: 16, Kernel: 2, Stride: 2},
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyWorkload(name string) prepared {
	return benchWorkloads[name].prepare(tinyLayers, 7)
}

func checkMetrics(t *testing.T, label string, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
	}
}

// Every workload runs at tiny scale, untraced and traced, passes its own
// checks and emits exactly the metrics BENCHMARK.json names, with their
// units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range benchWorkloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, name := range names {
		if _, ok := benchWorkloads[name]; !ok {
			t.Fatalf("BENCHMARK.json workload %s is not in the benchmark", name)
		}
		res, _, err := untracedRun(tinyWorkload(name), 2, 300*time.Millisecond)
		if err != nil || !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s untraced: err %v, result %+v", name, err, res)
		}
		checkMetrics(t, name+" untraced", res, bf.EndToEnd)
		if v := res.Metrics["sim_cycles"].Value; v <= 0 {
			t.Errorf("%s: sim_cycles %v", name, v)
		}

		dir := t.TempDir()
		res, _, err = tracedRun(tinyWorkload(name), 600*time.Millisecond, options{workload: name, out: dir})
		if err != nil || !res.Correct {
			t.Fatalf("%s traced: err %v, result %+v", name, err, res)
		}
		checkMetrics(t, name+" traced", res, bf.PerLayer)
		for _, zero := range []string{"ops.plan_misses", "trace.spans_dropped", "trace.spans_active_end", "fail_frac"} {
			if v := res.Metrics[zero].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", name, zero, v)
			}
		}
		for _, f := range []string{"-program.jsonl", "-bench.jsonl"} {
			if _, err := os.Stat(dir + "/spans/" + name + "-seed0" + f); err != nil {
				t.Errorf("%s: span dump: %v", name, err)
			}
		}
	}
}

// One corrupted golden output makes the run fail: the checker compares
// every output, on every workload.
func TestCorruptedOutputIsCaught(t *testing.T) {
	for _, name := range []string{"serve-open", "serve-burst", "sweep-tablei"} {
		p := tinyWorkload(name)
		s, err := p.setUp(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch w := p.(type) {
		case *serveLoad:
			w.want[w.keys[0]].Data[3] ^= 0x01
		case *sweepLoad:
			w.progs[0].want[0].Data[3] ^= 0x01
		}
		ph := measurePhase(s, 300*time.Millisecond, nil)
		if err := s.close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ph.failed == 0 || ph.attempted == ph.failed {
			t.Errorf("%s: %d of %d operations failed, want only the corrupted kind", name, ph.failed, ph.attempted)
		}
	}
}

// A layer's self time is its span minus the union of the named children
// it covers: overlapping children count once, other children not at all,
// and a child running past the parent's end counts only inside it.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Name: "chip_run", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "tile_exec", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "tile_exec", StartNS: 30, EndNS: 50},
		{ID: 4, Parent: 1, Name: "plan_lookup", StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 1, Name: "serve_shed", StartNS: 60, EndNS: 70},
	}
	got := indexSpans(spans).selfTimes("chip_run", "tile_exec", "plan_lookup")
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("self time %v, want [50ns]", got)
	}
}
