package chip

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"davinci/internal/aicore"
	"davinci/internal/faults"
	"davinci/internal/tensor"
	"davinci/internal/trace"
)

// Resilience configures the fault tolerance of the tile executor. Every
// run goes through one executor (runTiles): tiles are placed on cores
// statically round-robin, each busy core reuses one aicore.Core across
// its tiles, and the first run-killing failure — or the caller's
// cancellation — interrupts every in-flight core. A panicking tile is
// recovered into an ErrTilePanic carrying the core index, tile identity
// and stack instead of crashing the process.
//
// The zero value runs each tile once: no watchdog, no retries, no
// attempt tracing, no degradation and no fault injection. With Enabled
// set, the executor adds, per tile attempt:
//
//   - a watchdog that interrupts an attempt making no progress after
//     Watchdog of host wall time and converts the hang into a typed
//     *TileError (ErrTileHang) naming the blocked pipe, the unsatisfied
//     wait_flag when known, and the tail of the stall-attributed trace;
//   - bounded retry on a FRESH core — a faulted core's scratch-pads may
//     hold corrupted data, so a core that failed an attempt is replaced
//     before its worker runs anything else — requeued onto a different
//     healthy core when one exists;
//   - per-core failure budgets: a core exceeding CoreFailLimit failed
//     attempts is marked bad and excluded from the retry pool;
//   - optional graceful degradation: a tile that exhausts MaxAttempts
//     falls back to the host-side golden model (internal/ref) and is
//     reported in Stats.Degraded instead of failing the run.
//
// Retry backoff is simulated bookkeeping only: each retry adds
// BackoffCycles << (attempt-1) to the chip_retry_backoff_cycles counter
// without sleeping the host or perturbing the deterministic cycle
// accounting of successful attempts.
type Resilience struct {
	// Enabled turns on the fault-tolerance features the other fields
	// configure; without it they are ignored.
	Enabled bool
	// Injector, when non-nil, perturbs tile attempts with deterministic
	// seeded faults (internal/faults) — the chaos harness.
	Injector *faults.Injector
	// MaxAttempts bounds hardware attempts per tile (first try included);
	// 0 means 3.
	MaxAttempts int
	// Watchdog is the per-attempt host wall-clock budget before a hung
	// core is reclaimed; 0 means 1s.
	Watchdog time.Duration
	// CoreFailLimit is how many failed attempts mark a core bad; 0 means 3.
	CoreFailLimit int
	// Degrade enables the golden-model fallback for tiles that exhaust
	// their attempts (reported in Stats.Degraded). Off, such tiles fail
	// the run.
	Degrade bool
	// BackoffCycles is the base of the simulated exponential retry
	// backoff; 0 means 1024.
	BackoffCycles int64
	// TraceTail is how many trailing trace entries a hang report carries;
	// 0 means 8, negative disables attempt tracing (hang reports then
	// carry no schedule tail, and replays may use the fast flattened
	// path).
	TraceTail int
}

// settings resolves the configuration the executor runs with: the zero
// value's single attempt, or Enabled's fields with their defaults.
func (r Resilience) settings() Resilience {
	if !r.Enabled {
		r = Resilience{MaxAttempts: 1, TraceTail: -1}
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.Watchdog <= 0 {
		r.Watchdog = time.Second
	}
	if r.CoreFailLimit <= 0 {
		r.CoreFailLimit = 3
	}
	if r.BackoffCycles <= 0 {
		r.BackoffCycles = 1024
	}
	if r.TraceTail == 0 {
		r.TraceTail = 8
	}
	return r
}

// pooled reports whether a tile can move between cores: by a retry, or
// by a core going bad while degraded tiles keep the run alive. Otherwise
// each core only ever runs its own static tiles.
func (r Resilience) pooled() bool { return r.MaxAttempts > 1 || r.Degrade }

// DegradedTile reports one tile computed by the host-side golden model
// after its hardware attempts were exhausted.
type DegradedTile struct {
	// N, C1 identify the tile.
	N, C1 int
	// Attempts is how many hardware attempts were made.
	Attempts int
	// LastErr is the final hardware failure, stringified for reporting.
	LastErr string
}

// retryJob is one pending tile attempt in the resilient scheduler.
type retryJob struct {
	n, c1   int
	attempt int
	// excluded are core indices that already failed this tile; the retry
	// queue will not hand the job back to them.
	excluded map[int]bool
	// lastErr is the failure that caused this retry (nil for reassigned
	// first attempts).
	lastErr error
	// prevSpan is the failed attempt's tile_exec span, so the retry's
	// span (or the tile_degrade span) can link back to it causally;
	// 0 when tracing is off or the job never ran.
	prevSpan trace.SpanID
}

// resilientRun is the shared state of one runTiles execution.
type resilientRun struct {
	chip *Chip
	res  Resilience
	run  tileRun
	fb   tileFallback
	rs   *runScope
	// cycOff is each worker's running simulated-cycle offset, placing
	// its tile_exec spans back to back on the worker's own cycle axis.
	// Index idx is touched only by worker goroutine idx.
	cycOff []int64

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []retryJob
	remaining int
	fatal     []error
	results   [][]tileResult
	degraded  []DegradedTile
	coreFails []int
	bad       []bool
}

// runTiles fans the (n, c1) tile grid across simulated cores round-robin
// and host goroutines, then aggregates stats: serial within a core,
// parallel across cores. It is the chip's one tile executor: failures
// are classified, retried on fresh cores through a shared requeue and
// optionally degraded to the golden model as c.cfg.Resilience allows,
// and a run-killing failure cancels every in-flight core. The run's
// errors are joined into one; interruptions the abort itself caused are
// left out.
func (c *Chip) runTiles(rs *runScope, n, c1 int, run tileRun, fb tileFallback) ([][]tileResult, *Stats, error) {
	parent := c.cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	jobs := tileGrid(n, c1)
	r := &resilientRun{
		chip:      c,
		res:       c.cfg.Resilience.settings(),
		run:       run,
		fb:        fb,
		rs:        rs,
		cycOff:    make([]int64, c.cfg.Cores),
		ctx:       ctx,
		cancel:    cancel,
		remaining: len(jobs),
		results:   make([][]tileResult, c.cfg.Cores),
		coreFails: make([]int, c.cfg.Cores),
		bad:       make([]bool, c.cfg.Cores),
	}
	r.cond = sync.NewCond(&r.mu)

	perCore := make([][]tileJob, c.cfg.Cores)
	for i, j := range jobs {
		perCore[i%c.cfg.Cores] = append(perCore[i%c.cfg.Cores], j)
	}
	pooled := r.res.pooled()
	var wg sync.WaitGroup
	for coreIdx := 0; coreIdx < c.cfg.Cores; coreIdx++ {
		if len(perCore[coreIdx]) == 0 && !pooled {
			continue // an idle worker could only wait for requeues
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r.worker(idx, perCore[idx], pooled)
		}(coreIdx)
	}
	wg.Wait()

	if len(r.fatal) > 0 {
		return nil, nil, errors.Join(r.fatal...)
	}

	stats := &Stats{CoreCycles: make([]int64, c.cfg.Cores), Tiles: len(jobs)}
	for idx, rs := range r.results {
		coreTotal := &aicore.Stats{}
		for _, res := range rs {
			coreTotal.AddSerial(res.stats)
		}
		stats.CoreCycles[idx] = coreTotal.Cycles
		stats.Work.AddParallel(coreTotal)
	}
	sort.Slice(r.degraded, func(i, j int) bool {
		if r.degraded[i].N != r.degraded[j].N {
			return r.degraded[i].N < r.degraded[j].N
		}
		return r.degraded[i].C1 < r.degraded[j].C1
	})
	stats.Degraded = r.degraded
	stats.Cycles = stats.Work.Cycles
	stats.Plans = c.plans.Stats()
	stats.Perf = c.perfReports()
	stats.Metrics = c.metrics.Snapshot()
	return r.results, stats, nil
}

// worker is one core's host goroutine: static first attempts, then —
// when tiles can move between cores — the shared retry queue until all
// tiles are finalized (or the run aborts).
func (r *resilientRun) worker(idx int, static []tileJob, pooled bool) {
	// The worker's core, reused across its tiles until an attempt on it
	// fails, and released with the worker.
	var core *aicore.Core
	for i, j := range static {
		if r.exiting() {
			return
		}
		if r.isBad(idx) {
			// A bad core stops taking work; its untried tiles move to
			// healthy cores.
			r.reassign(idx, static[i:])
			return
		}
		core = r.attempt(idx, core, retryJob{n: j.n, c1: j.c1, attempt: 1})
	}
	if !pooled {
		return
	}
	for {
		j, ok := r.pop(idx)
		if !ok {
			return
		}
		core = r.attempt(idx, core, j)
	}
}

func (r *resilientRun) exiting() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.remaining == 0 || len(r.fatal) > 0
}

func (r *resilientRun) isBad(idx int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bad[idx]
}

// pop blocks until a retry job this core may run is available, all tiles
// are finalized, the run went fatal, or this core was marked bad.
func (r *resilientRun) pop(idx int) (retryJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.remaining == 0 || len(r.fatal) > 0 || r.bad[idx] {
			return retryJob{}, false
		}
		for i, j := range r.queue {
			if !j.excluded[idx] {
				r.queue = append(r.queue[:i], r.queue[i+1:]...)
				return j, true
			}
		}
		r.cond.Wait()
	}
}

// attempt runs one tile attempt on the worker's core (a new one when
// core is nil) with the watchdog armed and a fault injected when
// configured, then classifies the outcome. It returns the core the
// worker's next attempt may reuse: nil after a failed attempt, so fault
// state never leaks across attempts.
func (r *resilientRun) attempt(idx int, core *aicore.Core, j retryJob) *aicore.Core {
	if r.ctx.Err() != nil {
		// Already aborted: don't race the watchdog watcher to start an
		// attempt that must not run.
		r.noteAborted()
		return core
	}
	c := r.chip
	if core == nil {
		core = c.newCore()
	}
	core.Trace = nil
	if r.res.TraceTail > 0 || r.rs.capturing(j.n, j.c1) {
		core.Trace = &aicore.Trace{}
	}
	if r.res.Injector != nil {
		r.res.Injector.Arm(core, r.res.Injector.Decide(faults.Tile{N: j.n, C1: j.c1}, j.attempt))
	}

	// One tile_exec span per hardware attempt; retries link back to the
	// attempt they replace, so a trace shows the whole causal chain.
	ts := r.rs.tileSpan(idx, j.n, j.c1)
	if ts != nil {
		ts.SetAttr("attempt", strconv.Itoa(j.attempt))
		if j.prevSpan != 0 {
			ts.Link("retry_of", j.prevSpan)
		}
	}

	// Without a watchdog the core observes the run-wide context directly.
	// With one, it gets a per-attempt cancel channel closed by a timer
	// (hang) or by the run-wide context (fail-fast abort, caller
	// cancellation).
	var wdFired atomic.Bool
	core.Cancel = r.ctx.Done()
	var stopWatch chan struct{}
	if r.res.Enabled {
		cancelCh := make(chan struct{})
		stopWatch = make(chan struct{})
		core.Cancel = cancelCh
		go func() {
			timer := time.NewTimer(r.res.Watchdog)
			defer timer.Stop()
			select {
			case <-timer.C:
				wdFired.Store(true)
				close(cancelCh)
			case <-r.ctx.Done():
				close(cancelCh)
			case <-stopWatch:
			}
		}()
	}
	start := time.Now()
	outs, st, err := r.guardedRun(core, idx, j)
	wall := time.Since(start).Nanoseconds()
	if stopWatch != nil {
		close(stopWatch)
	}

	if err == nil {
		if ts != nil {
			ts.SetAttr("outcome", "ok")
			off := r.cycOff[idx]
			ts.SetCycles(off, off+st.Cycles)
			ts.End()
		}
		r.cycOff[idx] += st.Cycles
		c.tileWall.Observe(wall)
		if r.rs.capturing(j.n, j.c1) {
			r.rs.stashTrace(core.Trace)
		}
		r.finalizeSuccess(idx, j, outs, st)
		return core
	}
	var spanID trace.SpanID
	if ts != nil {
		if wdFired.Load() {
			ts.SetAttr("watchdog", "tripped")
		}
		ts.SetAttr("outcome", "error")
		spanID = ts.ID()
		ts.End()
	}
	c.tileWall.Observe(wall)
	if r.ctx.Err() != nil && !wdFired.Load() {
		// Casualty of the run-wide abort, not a failure of this tile.
		r.noteAborted()
		return nil
	}
	if te := r.classify(idx, j, core, err, wdFired.Load()); te != nil {
		r.handleFailure(idx, j, te, spanID)
	} else {
		// Not a fault, hang or panic: a deterministic bug (bad plan, bad
		// shape). Retrying cannot help; fail the run.
		r.setFatal(fmt.Errorf("chip: core %d tile (%d,%d): %w", idx, j.n, j.c1, err))
	}
	return nil
}

// guardedRun invokes the tile closure with panic containment: a
// panicking tile becomes a typed error, not a crashed process.
func (r *resilientRun) guardedRun(core *aicore.Core, idx int, j retryJob) (outs []*tensor.Tensor, st *aicore.Stats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &TileError{
				N: j.n, C1: j.c1, Core: idx, Attempt: j.attempt,
				Kind:  ErrTilePanic,
				Cause: fmt.Errorf("panic: %v", rec),
				Stack: debug.Stack(),
			}
		}
	}()
	outs, st, err = r.run(core, j.n, j.c1)
	return
}

// classify turns a failed attempt into a typed *TileError, or nil when
// the failure is deterministic (not retryable).
func (r *resilientRun) classify(idx int, j retryJob, core *aicore.Core, err error, hung bool) *TileError {
	var te *TileError
	if errors.As(err, &te) {
		return te // panic path, already typed
	}
	e := &TileError{N: j.n, C1: j.c1, Core: idx, Attempt: j.attempt, Cause: err}
	var dl *aicore.DeadlockError
	var sp *faults.StuckPipeError
	switch {
	case hung:
		e.Kind = ErrTileHang
		r.chip.watchdogTrips.Inc()
		if errors.As(err, &dl) {
			e.Pipe, e.Flag, e.HasFlag = dl.Pipe, dl.Flag, dl.HasFlag
		} else if errors.As(err, &sp) {
			e.Pipe = sp.Pipe
		}
		if core.Trace != nil {
			tail := core.Trace.Entries
			if len(tail) > r.res.TraceTail {
				tail = tail[len(tail)-r.res.TraceTail:]
			}
			e.TraceTail = append([]aicore.TraceEntry(nil), tail...)
		}
	default:
		if _, injected := faults.IsInjected(err); injected {
			e.Kind = ErrTileFault
		} else if errors.As(err, &dl) {
			// A deadlock that surfaced without hanging (no watchdog wait)
			// is still a sync failure of this attempt.
			e.Kind = ErrTileHang
			e.Pipe, e.Flag, e.HasFlag = dl.Pipe, dl.Flag, dl.HasFlag
		} else {
			return nil
		}
	}
	return e
}

// handleFailure books the failed attempt and either schedules a retry,
// degrades the tile, or fails the run.
func (r *resilientRun) handleFailure(idx int, j retryJob, te *TileError, spanID trace.SpanID) {
	c := r.chip
	if errors.Is(te.Kind, ErrTilePanic) {
		c.tilePanics.Inc()
	}

	r.mu.Lock()
	r.coreFails[idx]++
	newlyBad := !r.bad[idx] && r.coreFails[idx] >= r.res.CoreFailLimit
	if newlyBad {
		r.bad[idx] = true
		c.coresFailed.Inc()
	}
	var exhausted []retryJob
	if newlyBad {
		// Queued jobs whose only eligible core just went bad must move or
		// be finalized, or the run would stall with every worker waiting.
		exhausted = append(exhausted, r.rebalanceLocked()...)
	}
	retryScheduled := false
	if j.attempt < r.res.MaxAttempts {
		nj := retryJob{n: j.n, c1: j.c1, attempt: j.attempt + 1, excluded: excludeSet(j.excluded, idx), lastErr: te, prevSpan: spanID}
		c.tileRetries.Inc()
		// Simulated exponential backoff: bookkeeping only, never a host
		// sleep, never added to the deterministic core cycle accounting.
		c.backoffCycles.Add(r.res.BackoffCycles << (j.attempt - 1))
		retryScheduled = r.pushLocked(nj)
	}
	r.mu.Unlock()

	if !retryScheduled {
		j.prevSpan = spanID
		r.finalizeExhausted(idx, j, te)
	}
	for _, ex := range exhausted {
		r.finalizeExhausted(idx, ex, ex.lastErr)
	}
}

// excludeSet copies prev and adds idx.
func excludeSet(prev map[int]bool, idx int) map[int]bool {
	next := make(map[int]bool, len(prev)+1)
	for k, v := range prev {
		next[k] = v
	}
	next[idx] = true
	return next
}

// pushLocked enqueues a retry for any healthy non-excluded core,
// loosening the exclusion set when every healthy core has already failed
// the tile. Returns false when no healthy core remains at all.
func (r *resilientRun) pushLocked(j retryJob) bool {
	if !r.runnableLocked(j) {
		if !r.anyHealthyLocked() {
			return false
		}
		// Every healthy core already failed this tile once; retrying
		// there still beats giving up.
		j.excluded = nil
	} else if len(j.excluded) > 0 {
		r.chip.tileRequeues.Inc()
	}
	r.queue = append(r.queue, j)
	r.cond.Broadcast()
	return true
}

func (r *resilientRun) runnableLocked(j retryJob) bool {
	for idx := range r.bad {
		if !r.bad[idx] && !j.excluded[idx] {
			return true
		}
	}
	return false
}

func (r *resilientRun) anyHealthyLocked() bool {
	for _, b := range r.bad {
		if !b {
			return true
		}
	}
	return false
}

// rebalanceLocked re-checks every queued job after a core went bad,
// loosening exclusions where possible and extracting jobs with no
// eligible core left for the caller to finalize.
func (r *resilientRun) rebalanceLocked() (exhausted []retryJob) {
	kept := r.queue[:0]
	for _, j := range r.queue {
		switch {
		case r.runnableLocked(j):
			kept = append(kept, j)
		case r.anyHealthyLocked():
			j.excluded = nil
			kept = append(kept, j)
		default:
			exhausted = append(exhausted, j)
		}
	}
	r.queue = kept
	return exhausted
}

// reassign pushes a bad core's untried tiles onto healthy cores.
func (r *resilientRun) reassign(idx int, rest []tileJob) {
	r.mu.Lock()
	var exhausted []retryJob
	for _, j := range rest {
		nj := retryJob{n: j.n, c1: j.c1, attempt: 1, excluded: map[int]bool{idx: true},
			lastErr: &CoreFailedError{Core: idx, Failures: r.coreFails[idx]}}
		if !r.pushLocked(nj) {
			exhausted = append(exhausted, nj)
		}
	}
	r.mu.Unlock()
	for _, ex := range exhausted {
		r.finalizeExhausted(idx, ex, ex.lastErr)
	}
}

func (r *resilientRun) finalizeSuccess(idx int, j retryJob, outs []*tensor.Tensor, st *aicore.Stats) {
	c := r.chip
	r.mu.Lock()
	r.results[idx] = append(r.results[idx], tileResult{n: j.n, c1: j.c1, outs: outs, stats: st})
	r.remaining--
	r.cond.Broadcast()
	r.mu.Unlock()
	c.tiles.Inc()
	c.tileAttempts.Observe(int64(j.attempt))
	c.tileCycles.Observe(st.Cycles)
	c.tileInstrs.Add(st.Instrs)
	c.bytesIn.Add(st.BytesIn)
	c.bytesOut.Add(st.BytesOut)
}

// finalizeExhausted handles a tile with no hardware attempts left:
// golden-model degradation when enabled, otherwise run failure.
func (r *resilientRun) finalizeExhausted(idx int, j retryJob, cause error) {
	if cause == nil {
		cause = &CoreFailedError{Core: idx}
	}
	if !r.res.Degrade || r.fb == nil {
		r.setFatal(fmt.Errorf("chip: tile (%d,%d) failed after %d attempt(s): %w", j.n, j.c1, j.attempt, cause))
		return
	}
	outs, err := r.fb(j.n, j.c1)
	if err != nil {
		r.setFatal(fmt.Errorf("chip: tile (%d,%d): golden fallback failed: %w", j.n, j.c1, err))
		return
	}
	// The degradation decision is itself a span, causally after the
	// attempt (or requeue) that exhausted the tile.
	if ds := r.rs.ctx().StartSpan("tile_degrade",
		"n", strconv.Itoa(j.n), "c1", strconv.Itoa(j.c1), "attempts", strconv.Itoa(j.attempt)); ds != nil {
		ds.Link("after", j.prevSpan)
		ds.End()
	}
	r.chip.tilesDegraded.Inc()
	r.chip.tileAttempts.Observe(int64(j.attempt))
	r.mu.Lock()
	// Degraded tiles contribute data but no cycles: the host, not a core,
	// computed them.
	r.results[idx] = append(r.results[idx], tileResult{n: j.n, c1: j.c1, outs: outs, stats: &aicore.Stats{}})
	r.degraded = append(r.degraded, DegradedTile{N: j.n, C1: j.c1, Attempts: j.attempt, LastErr: cause.Error()})
	r.remaining--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// setFatal records a run-killing error and aborts every in-flight core.
func (r *resilientRun) setFatal(err error) {
	r.mu.Lock()
	r.fatal = append(r.fatal, err)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.cancel()
}

// noteAborted records the caller's cancellation (once) when an attempt
// died from the run-wide abort rather than its own failure. The error
// wraps both the context's error and aicore.ErrInterrupted.
func (r *resilientRun) noteAborted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.fatal) == 0 {
		r.fatal = append(r.fatal, fmt.Errorf("chip: run aborted: %w: %w", r.ctx.Err(), aicore.ErrInterrupted))
		r.cond.Broadcast()
	}
}
