package aicore

import (
	"davinci/internal/cce"
	"davinci/internal/isa"
)

// board is the implicit-sync timing scoreboard extracted from schedule():
// per-pipe in-order issue, exact-region data hazards with bounded history,
// and barrier floors. schedule() drives it alongside functional execution;
// the static paths (Time, Board, Executable) drive it alone, so every
// start time and every Stats counter they compute is identical to what
// Run would produce — including the conservative whole-buffer floors
// history folding introduces.
type board struct {
	cost         *isa.CostModel
	serialize    bool
	pipeFree     [isa.NumPipes]int64
	barrierFloor int64
	bufs         []bufTimes
	stats        Stats // Cycles is the makespan of everything placed
}

func newBoard(cost *isa.CostModel, serialize bool) *board {
	return &board{cost: cost, serialize: serialize, bufs: make([]bufTimes, isa.NumBufs)}
}

// constraints proposes every start-time constraint the scoreboard imposes
// on in to tr: the standing barrier floor, the all-pipes join for barriers
// (and for every instruction under Serialize), and the RAW/WAW/WAR hazards
// against the recorded access history otherwise.
func (b *board) constraints(in isa.Instr, tr *stallTracker) {
	tr.propose(b.barrierFloor, StallBarrier, 0, -1)
	_, isBarrier := in.(*isa.BarrierInstr)
	if isBarrier || b.serialize {
		// Wait for everything issued so far (a barrier join; Serialize
		// imposes the same join before every instruction).
		tr.propose(b.stats.Cycles, StallBarrier, 0, -1)
		for _, f := range b.pipeFree {
			tr.propose(f, StallBarrier, 0, -1)
		}
		return
	}
	for _, r := range in.Reads() { // RAW
		bt := &b.bufs[r.Buf]
		t, p := bt.lastOverlap(bt.writes, r)
		tr.propose(t, StallRAW, r.Buf, p)
		tr.propose(bt.floorW, StallRAW, r.Buf, -1)
	}
	for _, w := range in.Writes() { // WAW and WAR
		bt := &b.bufs[w.Buf]
		t, p := bt.lastOverlap(bt.writes, w)
		tr.propose(t, StallWAW, w.Buf, p)
		t, p = bt.lastOverlap(bt.reads, w)
		tr.propose(t, StallWAR, w.Buf, p)
		tr.propose(bt.floorW, StallWAW, w.Buf, -1)
		tr.propose(bt.floorR, StallWAR, w.Buf, -1)
	}
}

// place issues in as instruction idx: it resolves the start time against
// the collected constraints, commits the access history, accounts the
// instruction in the board's Stats, and returns the scheduled interval
// plus the attributed stall.
func (b *board) place(in isa.Instr, idx int, tr *stallTracker) (start, end int64, stall Stall) {
	pipe := in.Pipe()
	start = b.start(in, tr)
	end = start + in.Cycles(b.cost)
	stall = tr.resolve(b.pipeFree[pipe])
	b.pipeFree[pipe] = end
	_, isBarrier := in.(*isa.BarrierInstr)
	if isBarrier {
		// Nothing may start before the barrier completes.
		b.barrierFloor = end
	} else {
		// Record accesses for later hazards.
		for _, r := range in.Reads() {
			bt := &b.bufs[r.Buf]
			bt.reads = append(bt.reads, interval{r.Off, r.End, end, idx})
			if len(bt.reads) > historyCap {
				bt.reads = foldOldest(bt.reads, &bt.floorR)
			}
		}
		for _, w := range in.Writes() {
			bt := &b.bufs[w.Buf]
			bt.writes = append(bt.writes, interval{w.Off, w.End, end, idx})
			if len(bt.writes) > historyCap {
				bt.writes = foldOldest(bt.writes, &bt.floorW)
			}
		}
	}
	b.stats.account(in, start, end)
	return start, end, stall
}

// start collects in's constraints into tr and returns when in would
// start if issued next, without committing anything.
func (b *board) start(in isa.Instr, tr *stallTracker) int64 {
	b.constraints(in, tr)
	return max(b.pipeFree[in.Pipe()], tr.t)
}

// staticStats places every instruction of prog on a fresh board, with no
// functional execution: the Stats Run would report, since the timing
// model is data-independent.
func staticStats(prog *cce.Program, cost *isa.CostModel, serialize bool) Stats {
	b := newBoard(cost, serialize)
	for idx, in := range prog.Instrs {
		tr := newStallTracker()
		b.place(in, idx, &tr)
	}
	return b.stats
}

// Time statically computes the makespan Run would report for prog under
// the implicit-sync scoreboard — the exact same cycle count, including the
// bounded-history folding, because the timing model is data-independent.
// A nil cost model takes the calibrated default. The static optimizer
// (internal/opt) uses it as its cycle oracle.
func Time(prog *cce.Program, cost *isa.CostModel, serialize bool) int64 {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	return staticStats(prog, cost, serialize).Cycles
}

// Board is an incremental timing scoreboard for static schedulers: StartOf
// peeks at when an instruction would start if issued next, Place commits
// it. Issue instructions in the order the candidate program will list
// them and Cycles returns exactly the makespan Run would report
// for that program.
type Board struct{ b *board }

// NewBoard creates an empty scoreboard under the given cost model. A nil
// cost model takes the calibrated default.
func NewBoard(cost *isa.CostModel) *Board {
	if cost == nil {
		cost = isa.DefaultCostModel()
	}
	return &Board{b: newBoard(cost, false)}
}

// StartOf peeks at the start time in would get if issued next.
func (s *Board) StartOf(in isa.Instr) int64 {
	tr := newStallTracker()
	return s.b.start(in, &tr)
}

// Place issues in as the next instruction and returns its scheduled
// interval. idx is the instruction's index in the candidate program (it
// only feeds stall attribution in traces; any monotone counter works).
func (s *Board) Place(in isa.Instr, idx int) (start, end int64) {
	tr := newStallTracker()
	start, end, _ = s.b.place(in, idx, &tr)
	return start, end
}

// Cycles returns the makespan of everything placed so far.
func (s *Board) Cycles() int64 { return s.b.stats.Cycles }
