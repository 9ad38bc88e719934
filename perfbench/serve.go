package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"davinci/internal/obs"
	"davinci/internal/ops"
	"davinci/internal/ref"
	"davinci/internal/serve"
	"davinci/internal/tensor"
	"davinci/internal/trace"
	"davinci/internal/workloads"
)

// serveKey is one request kind: a forward pooling kernel on one layer.
type serveKey struct {
	layer  int
	kernel string
}

// serveLoad is a prepared serving workload: one input per layer and the
// golden-model output of every request kind, all made from the seed
// before anything is timed.
type serveLoad struct {
	open   bool          // open loop at rate; otherwise closed bursts
	rate   float64       // open loop: requests per second
	burst  int           // closed loop: requests per burst
	limit  time.Duration // goodput latency limit
	seed   int64
	layers []workloads.CNNLayer
	keys   []serveKey
	inputs []*tensor.Tensor
	want   map[serveKey]*tensor.Tensor
	refs   []time.Duration
}

func prepareServe(layers []workloads.CNNLayer, seed int64) *serveLoad {
	w := &serveLoad{seed: seed, layers: layers, want: map[serveKey]*tensor.Tensor{}}
	type layerRefs struct {
		in, max, avg *tensor.Tensor
		refs         []time.Duration
	}
	ls := make([]layerRefs, len(layers))
	eachLayer(layers, func(i int) {
		l, lr := layers[i], &ls[i]
		rng := layerRNG(seed, i)
		in := tiles(func() *tensor.Tensor { return randomTile(rng, l.H, l.W) })
		lr.in = tiled(l.C1(), in)
		lr.max = tiled(l.C1(), refTiles(&lr.refs, func(j int) *tensor.Tensor { return ref.MaxPoolForward(in[j], l.Params()) }))
		lr.avg = tiled(l.C1(), refTiles(&lr.refs, func(j int) *tensor.Tensor { return ref.AvgPoolForward(in[j], l.Params()) }))
	})
	for i, lr := range ls {
		w.inputs = append(w.inputs, lr.in)
		w.refs = append(w.refs, lr.refs...)
		w.keys = append(w.keys, serveKey{i, "maxpool"}, serveKey{i, "avgpool"})
		w.want[serveKey{i, "maxpool"}] = lr.max
		w.want[serveKey{i, "avgpool"}] = lr.avg
	}
	return w
}

func (w *serveLoad) request(k serveKey) serve.Request {
	return serve.Request{
		Kernel: k.kernel,
		Params: w.layers[k.layer].Params(),
		Input:  w.inputs[k.layer],
		Class:  serve.ClassInteractive,
	}
}

// check reports whether r is a completed response carrying exactly the
// golden output for k (forward im2col pooling is bit-exact).
func (w *serveLoad) check(k serveKey, r *serve.Response) bool {
	want := w.want[k]
	return r.Outcome == serve.OutcomeCompleted && r.Output != nil &&
		tensor.SameShape(r.Output, want) && bytes.Equal(r.Output.Data, want.Data)
}

func (w *serveLoad) refTimes() []time.Duration { return w.refs }

// serveSystem is one fleet, warmed and ready to measure.
type serveSystem struct {
	w         *serveLoad
	srv       *serve.Server
	reg       *obs.Registry
	sim       int64 // simulated tile cycles of the warm-up list
	submitted int64 // requests submitted so far, warm-up included
	mix       *deck
}

// setUp builds the default 2-chip fleet and sends every request kind once,
// solo, so every (shape, kernel) plan is compiled and has had its first
// replay. Shedding is off (no SLO), requests carry no deadline, and the
// queue is large enough to refuse nothing.
func (w *serveLoad) setUp(tr *trace.Tracer) (system, error) {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{QueueLimit: 1 << 16, Metrics: reg, Trace: tr.Root()})
	s := &serveSystem{w: w, srv: srv, reg: reg, mix: newDeck(len(w.keys), w.seed)}
	before := tileCycles(reg.Snapshot())
	tickets := make([]*serve.Ticket, len(w.keys))
	for i, k := range w.keys {
		tickets[i] = srv.Submit(context.Background(), w.request(k))
	}
	s.submitted = int64(len(tickets))
	for i, t := range tickets {
		if r := t.Wait(); !w.check(w.keys[i], r) {
			srv.Close()
			return nil, fmt.Errorf("warm-up %s on layer %d: outcome %v (%v) or output mismatch", w.keys[i].kernel, w.keys[i].layer, r.Outcome, r.Err)
		}
	}
	s.sim = tileCycles(reg.Snapshot()) - before
	return s, nil
}

func tileCycles(s *obs.Snapshot) int64 {
	for _, h := range s.Histograms {
		if h.Name == "chip_tile_cycles" {
			return h.Sum
		}
	}
	return 0
}

func (s *serveSystem) simCycles() int64        { return s.sim }
func (s *serveSystem) registry() *obs.Registry { return s.reg }

// outcome is what the benchmark saw for one request.
type outcome struct {
	due     time.Time
	submit  time.Duration
	ready   time.Time
	ok      bool
	wait    time.Duration
	service time.Duration
	batch   int
}

// send submits one request whose clock starts at due and watches its
// ticket from its own goroutine, so the ready time is taken the moment
// the response is ready rather than when a loop gets to it.
func (s *serveSystem) send(k serveKey, due time.Time, o *outcome, rec *recorder, wg *sync.WaitGroup) {
	o.due = due
	req := rec.start("bench_request", 0, due)
	sent := time.Now()
	sub := rec.start("bench_submit", req.id(), sent)
	t := s.srv.Submit(context.Background(), s.w.request(k))
	o.submit = time.Since(sent)
	sub.end(sent.Add(o.submit))
	s.submitted++
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-t.Done()
		o.ready = time.Now()
		req.end(o.ready)
		r := t.Wait()
		o.ok = s.w.check(k, r)
		o.wait, o.service, o.batch = r.Wait, r.Latency-r.Wait, r.BatchSize
	}()
}

// measure offers the workload's traffic for about window. Open loop: sends
// are due every 1/rate seconds whatever the fleet does, and each request's
// latency runs from its due time. Closed loop: one client sends a burst,
// waits for all of it, and starts another until window has elapsed;
// latency runs from the burst start.
func (s *serveSystem) measure(window time.Duration, rec *recorder) *phase {
	w := s.w
	var outs []*outcome
	var late []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	if w.open {
		// Whole rounds of the deck, so every kind is sent equally often.
		rounds := int(math.Ceil(window.Seconds() * w.rate / float64(len(w.keys))))
		outs = make([]*outcome, rounds*len(w.keys))
		for i := range outs {
			due := start.Add(time.Duration(float64(i) / w.rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, time.Since(due))
			outs[i] = &outcome{}
			s.send(w.keys[s.mix.deal()], due, outs[i], rec, &wg)
		}
		wg.Wait()
	} else {
		for time.Since(start) < window {
			due := time.Now()
			for j := 0; j < w.burst; j++ {
				o := &outcome{}
				outs = append(outs, o)
				s.send(w.keys[s.mix.deal()], due, o, rec, &wg)
			}
			wg.Wait()
		}
	}
	// A round is one deal of every request kind (open loop) or one burst.
	round := w.burst
	if w.open {
		round = len(w.keys)
	}
	var slowest []time.Duration // per round
	ph := &phase{late: late}
	end := start
	for i, o := range outs {
		ph.attempted++
		if o.ready.After(end) {
			end = o.ready
		}
		if i%round == 0 {
			slowest = append(slowest, 0)
		}
		if !o.ok {
			ph.failed++
			continue
		}
		lat := o.ready.Sub(o.due)
		slowest[len(slowest)-1] = max(slowest[len(slowest)-1], lat)
		ph.lat = append(ph.lat, lat)
		if lat <= w.limit {
			ph.good++
		}
		ph.submit = append(ph.submit, o.submit)
		ph.wait = append(ph.wait, o.wait)
		ph.service = append(ph.service, o.service)
		ph.batch = append(ph.batch, float64(o.batch))
	}
	ph.elapsed = end.Sub(start)
	// The tail is each round's slowest request, median over rounds.
	ph.tailMs = median(durations(slowest, ms))
	return ph
}

// close drains and stops the fleet and checks conservation: every request
// submitted reached a terminal outcome, and every one of them completed.
func (s *serveSystem) close() error {
	s.srv.Drain()
	st := s.srv.Stats()
	s.srv.Close()
	if st.Lost() != 0 {
		return fmt.Errorf("conservation: %d requests lost (%+v)", st.Lost(), st)
	}
	if st.Submitted != s.submitted || st.Completed != s.submitted {
		return fmt.Errorf("conservation: %d sent, %d submitted, %d completed (%+v)", s.submitted, st.Submitted, st.Completed, st)
	}
	return nil
}

// probes compiles each request kind with the fleet's own Spec: chips in a
// serving fleet compile strictly, through the acceptance gate.
func (w *serveLoad) probes() []probeCase {
	spec := ops.Spec{Strict: true}
	var cases []probeCase
	for _, k := range w.keys {
		p := w.layers[k.layer].Params()
		compile := func() (*ops.Plan, error) { return ops.PlanMaxPoolForward("im2col", spec, p) }
		if k.kernel == "avgpool" {
			compile = func() (*ops.Plan, error) { return ops.PlanAvgPoolForward("im2col", spec, p) }
		}
		cases = append(cases, probeCase{compile: compile, tile: []*tensor.Tensor{tensor.SliceC1(w.inputs[k.layer], 0, 0)}})
	}
	return cases
}

// deck deals request kinds in a seeded random order, every kind once per
// round, so a run's mix is the workload's nominal mix whatever the seed.
type deck struct {
	rng   *rand.Rand
	order []int
	n     int
}

func newDeck(n int, seed int64) *deck {
	return &deck{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), n: n}
}

func (d *deck) deal() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}
