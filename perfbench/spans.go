package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"davinci/internal/trace"
)

// benchSpan is one span the benchmark records around its own call into a
// layer. The benchmark keeps these apart from the program's tracer so its
// span names never enter the program's canonical span vocabulary.
type benchSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps every benchmark span in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay nothing.
type recorder struct {
	next   atomic.Uint64
	active atomic.Int64

	mu    sync.Mutex
	spans []benchSpan
}

// openSpan is a started benchmark span.
type openSpan struct {
	r    *recorder
	span benchSpan
}

// start opens a span that began at t (the caller's own clock reading, so
// an open-loop request can start at its due time rather than when it was
// sent).
func (r *recorder) start(name string, parent uint64, t time.Time) *openSpan {
	if r == nil {
		return nil
	}
	r.active.Add(1)
	return &openSpan{r: r, span: benchSpan{ID: r.next.Add(1), Parent: parent, Name: name, StartNS: t.UnixNano()}}
}

func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// end closes the span at t.
func (o *openSpan) end(t time.Time) {
	if o == nil {
		return
	}
	o.span.EndNS = t.UnixNano()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
	o.r.active.Add(-1)
}

// record adds a finished span that ran for d from start.
func (r *recorder) record(name string, start time.Time, d time.Duration) {
	r.start(name, 0, start).end(start.Add(d))
}

func (r *recorder) activeCount() int64 {
	if r == nil {
		return 0
	}
	return r.active.Load()
}

// writeSpans writes the program's spans and the benchmark's own spans to
// one JSON-lines file each under dir.
func writeSpans(dir, stem string, prog []trace.Span, own *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	write := func(name string, fill func(*bufio.Writer) error) error {
		f, err := os.Create(dir + "/" + name)
		if err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		w := bufio.NewWriter(f)
		if err := fill(w); err != nil {
			f.Close()
			return fmt.Errorf("spans: %s: %w", name, err)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("spans: %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write(stem+"-program.jsonl", func(w *bufio.Writer) error { return trace.WriteJSONL(w, prog) }); err != nil {
		return err
	}
	return write(stem+"-bench.jsonl", func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range own.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// spanIndex groups the program's finished spans for self-time queries.
type spanIndex struct {
	byName   map[string][]*trace.Span
	children map[trace.SpanID][]*trace.Span
}

func indexSpans(spans []trace.Span) *spanIndex {
	ix := &spanIndex{byName: map[string][]*trace.Span{}, children: map[trace.SpanID][]*trace.Span{}}
	for i := range spans {
		s := &spans[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the wall duration of every span with the given name.
func (ix *spanIndex) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.byName[name] {
		out = append(out, time.Duration(s.EndNS-s.StartNS))
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its direct children named in sub.
// Children may overlap (tiles run on parallel cores), so coverage is the
// length of the union of their intervals, clipped to the parent.
func (ix *spanIndex) selfTimes(name string, sub ...string) []time.Duration {
	want := map[string]bool{}
	for _, n := range sub {
		want[n] = true
	}
	var out []time.Duration
	for _, s := range ix.byName[name] {
		var iv [][2]int64
		for _, c := range ix.children[s.ID] {
			if !want[c.Name] {
				continue
			}
			lo, hi := max(c.StartNS, s.StartNS), min(c.EndNS, s.EndNS)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out = append(out, time.Duration(s.EndNS-s.StartNS-unionLen(iv)))
	}
	return out
}

// unionLen is the total length covered by a set of half-open intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}
