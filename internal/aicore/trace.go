package aicore

import (
	"fmt"
	"io"

	"davinci/internal/isa"
)

// EntryKind distinguishes synchronization instructions in a trace, so
// exporters (internal/obs) can render flag edges and barrier joins without
// re-parsing instruction text.
type EntryKind uint8

const (
	// KindInstr is an ordinary instruction.
	KindInstr EntryKind = iota
	// KindSetFlag is a set_flag; Flag holds (src, dst, event).
	KindSetFlag
	// KindWaitFlag is a wait_flag; Flag holds (src, dst, event).
	KindWaitFlag
	// KindBarrier is a full pipe barrier.
	KindBarrier
)

// TraceEntry records one scheduled instruction.
type TraceEntry struct {
	Idx        int
	Pipe       isa.Pipe
	Start, End int64
	Text       string
	// Kind marks synchronization instructions (flags, barriers).
	Kind EntryKind
	// Flag is the (src pipe, dst pipe, event) triple for set/wait entries.
	Flag [3]int
	// Stall is the attributed reason this instruction waited, and the idle
	// gap it left on its pipe (see StallCause for the accounting identity).
	Stall Stall
}

// Trace collects the schedule of a run for visualization — the software
// counterpart of the per-unit hardware counters the paper reads (§VI).
// Attach one to Core.Trace before running. Run and RunExplicit append to
// it, so a Trace accumulates entries across those runs; Replay resets it
// first, so each replay yields exactly one timeline.
type Trace struct {
	Entries []TraceEntry
}

// Reset discards the recorded entries, keeping the backing capacity so a
// trace reused across replays of the same plan does not reallocate — and,
// more importantly, does not grow without bound.
func (t *Trace) Reset() { t.Entries = t.Entries[:0] }

// grow preallocates room for n more entries (one per instruction of the
// program about to be scheduled), so recording never reallocates mid-run.
func (t *Trace) grow(n int) {
	if free := cap(t.Entries) - len(t.Entries); free < n {
		entries := make([]TraceEntry, len(t.Entries), len(t.Entries)+n)
		copy(entries, t.Entries)
		t.Entries = entries
	}
}

func (t *Trace) record(idx int, in isa.Instr, start, end int64, stall Stall) {
	e := TraceEntry{Idx: idx, Pipe: in.Pipe(), Start: start, End: end, Text: in.String(), Stall: stall}
	switch v := in.(type) {
	case *isa.SetFlagInstr:
		e.Kind, e.Flag = KindSetFlag, [3]int{int(v.SrcPipe), int(v.DstPipe), v.Event}
	case *isa.WaitFlagInstr:
		e.Kind, e.Flag = KindWaitFlag, [3]int{int(v.SrcPipe), int(v.DstPipe), v.Event}
	case *isa.BarrierInstr:
		e.Kind = KindBarrier
	}
	t.Entries = append(t.Entries, e)
}

// Makespan returns the completion time of the last instruction.
func (t *Trace) Makespan() int64 {
	var m int64
	for _, e := range t.Entries {
		if e.End > m {
			m = e.End
		}
	}
	return m
}

// Utilization returns per-pipe busy fractions of the makespan.
func (t *Trace) Utilization() [isa.NumPipes]float64 {
	var busy [isa.NumPipes]int64
	for _, e := range t.Entries {
		busy[e.Pipe] += e.End - e.Start
	}
	var out [isa.NumPipes]float64
	if m := t.Makespan(); m > 0 {
		for p := range out {
			out[p] = float64(busy[p]) / float64(m)
		}
	}
	return out
}

// Gantt renders a character timeline per pipe: '#' for busy columns, '.'
// for idle, compressed to the given width.
func (t *Trace) Gantt(w io.Writer, width int) {
	if width < 8 {
		width = 8
	}
	m := t.Makespan()
	if m == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	util := t.Utilization()
	for p := isa.Pipe(0); p < isa.NumPipes; p++ {
		cols := make([]byte, width)
		for i := range cols {
			cols[i] = '.'
		}
		any := false
		for _, e := range t.Entries {
			if e.Pipe != p {
				continue
			}
			any = true
			lo := int(e.Start * int64(width) / m)
			hi := int((e.End*int64(width) + m - 1) / m)
			// Clamp into [0, width): an entry starting at the makespan
			// boundary (Start == m, e.g. a zero-cost instruction after the
			// last busy cycle) rounds lo to width, which the hi clamp alone
			// would silently drop instead of rendering in the last column.
			if lo >= width {
				lo = width - 1
			}
			if hi > width {
				hi = width
			}
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi; i++ {
				cols[i] = '#'
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "%-6s |%s| %5.1f%%\n", p, cols, 100*util[p])
	}
	fmt.Fprintf(w, "%-6s  0%scycles %d\n", "", spaces(width-8), m)
}

func spaces(n int) string {
	if n < 1 {
		n = 1
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return string(b)
}
