package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/tensor"
	"davinci/internal/workloads"
)

// TestAccountingIdentityEveryKernelEveryLayer is the acceptance bar of
// this package: for every built-in kernel on every Table I layer, the
// attributed trace must satisfy, per pipe, busy + stalls + idle ==
// makespan exactly (Account errors otherwise); total attributed stalls
// must cover the gap between the simulated cycles and the static busy
// bound of internal/lint/perf; and the exported Chrome trace must parse
// as valid JSON with a non-empty traceEvents array. The same compiled
// plans also pin Replay's path selection (see checkFirstReplay).
func TestAccountingIdentityEveryKernelEveryLayer(t *testing.T) {
	layers := workloads.TableI
	if testing.Short() {
		layers = workloads.InceptionV3Fig7()
	}
	rng := rand.New(rand.NewSource(11))
	spec := ops.Spec{}
	checked := 0
	for _, layer := range layers {
		p := layer.Params()
		for _, kc := range kernelcases.All() {
			pl, err := kc.Plan(spec, p)
			if err != nil {
				if kernelcases.IsCapacitySkip(err) {
					continue
				}
				t.Fatalf("%s %dx%dx%d: compile: %v", kc.Name, layer.H, layer.W, layer.C, err)
			}
			core := aicore.New(buffer.Config{}, nil)
			core.Trace = &aicore.Trace{}
			inputs := kc.Inputs(rng, p)
			outs, st, err := pl.Run(core, inputs...)
			if err != nil {
				t.Fatalf("%s %dx%dx%d: run: %v", kc.Name, layer.H, layer.W, layer.C, err)
			}
			checkFirstReplay(t, fmt.Sprintf("%s %dx%dx%d", kc.Name, layer.H, layer.W, layer.C), pl, inputs, outs, st)
			acct, err := obs.Account(core.Trace)
			if err != nil {
				t.Fatalf("%s %dx%dx%d: accounting identity: %v", kc.Name, layer.H, layer.W, layer.C, err)
			}
			if acct.Makespan != st.Cycles {
				t.Errorf("%s %dx%dx%d: accounted makespan %d != simulated %d",
					kc.Name, layer.H, layer.W, layer.C, acct.Makespan, st.Cycles)
			}
			if acct.TotalStall < st.Cycles-pl.Perf.BusyBound {
				t.Errorf("%s %dx%dx%d: attributed stalls %d do not cover simulated %d - busy bound %d",
					kc.Name, layer.H, layer.W, layer.C, acct.TotalStall, st.Cycles, pl.Perf.BusyBound)
			}
			var buf bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, core.Trace); err != nil {
				t.Fatalf("%s %dx%dx%d: export: %v", kc.Name, layer.H, layer.W, layer.C, err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("%s %dx%dx%d: trace is not valid JSON: %v", kc.Name, layer.H, layer.W, layer.C, err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Errorf("%s %dx%dx%d: empty traceEvents", kc.Name, layer.H, layer.W, layer.C)
			}
			checked++
		}
	}
	t.Logf("accounting identity checked on %d kernel x layer programs", checked)
}

// checkFirstReplay compares, in three timing contexts sharing pl, the
// first Run on an untraced core (flat trace plus the static board's
// schedule) with a Run on a traced core (interpreted): outputs must be
// byte-identical and the whole Stats equal. The default context's traced
// run is the caller's (outs, st); the other two contexts, pipelining off
// and a non-default cost model, must each get their own schedule from the
// plan's per-context cache. Under the race detector only the default
// context is checked: the sweep runs on one goroutine, so instrumentation
// adds no coverage, while each extra context (one more interpreted and one
// more flat run of all 205 programs) would triple the package's race time.
func checkFirstReplay(t *testing.T, name string, pl *ops.Plan, inputs, outs []*tensor.Tensor, st *aicore.Stats) {
	t.Helper()
	slow := *isa.DefaultCostModel()
	slow.VecIssue, slow.MteIssue, slow.DmaBytesPerCycle = 7, 40, 32
	contexts := []struct {
		name      string
		cost      *isa.CostModel
		serialize bool
	}{{"default", nil, false}, {"serialize", nil, true}, {"cost", &slow, false}}
	if raceEnabled {
		contexts = contexts[:1]
	}
	for _, tc := range contexts {
		newCore := func() *aicore.Core {
			c := aicore.New(buffer.Config{}, tc.cost)
			c.Serialize = tc.serialize
			return c
		}
		wantOuts, wantSt := outs, st
		if tc.name != "default" {
			traced := newCore()
			traced.Trace = &aicore.Trace{}
			var err error
			if wantOuts, wantSt, err = pl.Run(traced, inputs...); err != nil {
				t.Fatalf("%s %s: interpreted run: %v", name, tc.name, err)
			}
		}
		gotOuts, gotSt, err := pl.Run(newCore(), inputs...)
		if err != nil {
			t.Fatalf("%s %s: first replay: %v", name, tc.name, err)
		}
		if *gotSt != *wantSt {
			t.Errorf("%s %s: first replay stats %v, interpreted %v", name, tc.name, gotSt, wantSt)
		}
		for i := range wantOuts {
			if !bytes.Equal(gotOuts[i].Data, wantOuts[i].Data) {
				t.Errorf("%s %s: first replay output %d differs from interpreted", name, tc.name, i)
			}
		}
	}
}
