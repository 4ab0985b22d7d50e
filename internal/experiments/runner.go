package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/metrics"
	"clnlr/internal/sim"
)

// ErrInterrupted reports a sweep stopped by Config.Interrupted: in-flight
// replications were drained, completed cells were finalized (and
// checkpointed when ReportDir is set), and the rest never ran. Re-running
// with Config.Resume picks up exactly where this run stopped.
var ErrInterrupted = errors.New("experiments: sweep interrupted; completed cells were checkpointed")

// CellFailure records one failed replication of one cell: which sweep
// point, which seed, and why (an ordinary error or a recovered
// *sim.PanicError carrying the goroutine stack).
type CellFailure struct {
	Label string // cell label, e.g. "F-R11 rate=2 clnlr"
	Seed  uint64 // the failing replication's seed
	Err   error
}

// PartialError aggregates every failed replication of a planner run. It is
// returned only after all unaffected cells were finalized, so callers that
// can render a partial figure set should errors.As for it, report the
// failures, and keep going.
type PartialError struct {
	Failures []CellFailure
}

func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiments: %d replication(s) failed; unaffected cells were kept:", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %s seed=%d: %v", f.Label, f.Seed, f.Err)
	}
	return b.String()
}

// planner is the cross-point experiment scheduler. Figure builders register
// cells — one (scenario, sweep-x, scheme) unit of work — and run() flattens
// every (cell × replication) pair into a single job set executed over one
// bounded worker pool. This keeps the pool saturated across figure
// boundaries: the tail of a figure with few remaining cells no longer
// leaves workers idle while the next figure waits to start.
//
// Determinism: replication r of a cell runs with seed sc.Seed+r, and cells
// are finalized in registration order, so a planner run produces
// bit-identical Figures to running each (cell, seed) alone on a fresh
// engine — regardless of worker count or job interleaving. The same
// purity is what makes checkpoint/resume sound: a cell loaded from a
// fingerprint-matched report is bit-identical to one re-run from scratch.
type planner struct {
	cfg   Config
	cells []*cell
}

// cell is one point's worth of replications plus the finalizer that folds
// them into figure Points once the whole job set has run.
type cell struct {
	label string // error context, e.g. "F-R5 flows=10 clnlr"
	sc    sim.Scenario

	// Discovery cells probe route discovery via sim.RunDiscovery
	// (rounds probes, discoveryGap apart) instead of the data-plane
	// sim.Run.
	discovery bool
	rounds    int

	results []sim.Result
	dres    []sim.DiscoveryResult
	// counters holds each replication's per-layer counter snapshot when
	// Config.ReportDir enables per-cell reports (data-plane cells only).
	counters []map[string]uint64
	// journeys holds each replication's journey aggregate when
	// Config.JourneyEveryN additionally arms packet-journey tracing.
	journeys []*journey.Agg
	errs     []error

	// loaded marks a cell whose replications came from a resume
	// checkpoint instead of running; skipped marks a cell with at least
	// one replication that never ran because the sweep was interrupted.
	// retries counts re-attempts consumed by the bounded retry pass.
	loaded  bool
	skipped bool
	retries int

	finalize func(*cell)
}

func newPlanner(cfg Config) *planner { return &planner{cfg: cfg} }

// add registers a data-plane cell. finalize runs after every job in the
// planner has completed, with c.results holding the replications in seed
// order.
func (p *planner) add(label string, sc sim.Scenario, finalize func(c *cell)) {
	sc.Audit = p.cfg.Audit
	p.cells = append(p.cells, &cell{label: label, sc: sc, finalize: finalize})
}

// discoveryGap separates consecutive discovery probes. sim.RunDiscovery
// rejects a gap that does not exceed the worst-case discovery time (RREQ
// attempts × DiscoveryTimeout), so rounds never overlap.
const discoveryGap = 4 * des.Second

// addDiscovery registers a discovery-probe cell (c.dres holds the
// replications in seed order).
func (p *planner) addDiscovery(label string, sc sim.Scenario, rounds int, finalize func(c *cell)) {
	sc.Audit = p.cfg.Audit
	p.cells = append(p.cells, &cell{
		label: label, sc: sc, discovery: true, rounds: rounds,
		finalize: finalize,
	})
}

// interrupted polls Config.Interrupted.
func (p *planner) interrupted() bool {
	return p.cfg.Interrupted != nil && p.cfg.Interrupted()
}

// runJob executes replication rep of c on eng, storing the result (and,
// when col/rec are non-nil, the run's counter snapshot and journey
// aggregate) into the cell's seed-ordered slices, and returns the run
// error.
func (p *planner) runJob(c *cell, rep int, eng *sim.Engine, col *metrics.Collector, rec *journey.Recorder) error {
	sc := c.sc
	sc.Seed += uint64(rep)
	if c.discovery {
		var err error
		c.dres[rep], err = eng.RunDiscovery(sc, c.rounds, discoveryGap)
		return err
	}
	if col != nil || rec != nil {
		r, err := eng.RunJourney(sc, nil, col, rec)
		c.results[rep] = r
		if err == nil {
			if col != nil {
				c.counters[rep] = col.Counters().Map()
			}
			if rec != nil {
				agg := journey.NewAgg(rec.EveryN())
				rec.Aggregate(agg)
				c.journeys[rep] = agg
			}
		}
		return err
	}
	var err error
	c.results[rep], err = eng.Run(sc)
	return err
}

// watchStalls starts the watchdog monitor over the per-worker progress
// channels: a watch that is inside a job whose published simulated clock
// has not moved for more than budget wall-clock time is aborted, which
// makes the DES kernel panic with *des.StallError at its next progress
// check — recovered by the pool's crash containment into a poisoned-cell
// PanicError. The returned stop function terminates the monitor.
//
// A handler that never returns control to the kernel cannot be killed
// this way (see des.Watch); the watchdog targets the realistic failure
// shape, zero-delay event livelock, where events keep executing but
// simulated time stops advancing.
func watchStalls(watches []*des.Watch, budget time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	tick := budget / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	go func() {
		defer wg.Done()
		type mark struct {
			gen   uint64
			now   des.Time
			since time.Time
		}
		last := make([]mark, len(watches))
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			wall := time.Now()
			for i, w := range watches {
				gen, running, now, _ := w.Snapshot()
				if !running || gen != last[i].gen || now != last[i].now {
					last[i] = mark{gen: gen, now: now, since: wall}
					continue
				}
				if wall.Sub(last[i].since) > budget {
					w.Abort()
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runContained invokes fn with the same panic containment the worker pool
// applies, so the sequential retry pass survives a retried replication
// crashing again.
func runContained(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &sim.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// retryFailed is the bounded-retry pass: every replication that died by
// panic (including watchdog kills) is re-attempted sequentially on a
// fresh engine with the same derived seed, up to Config.Retries times
// with Config.RetryBackoff between attempts. Determinism is preserved
// because a successful retry computes exactly the result the original
// run would have produced. watch, when non-nil, keeps the watchdog armed
// over the retries.
func (p *planner) retryFailed(watch *des.Watch) {
	var col *metrics.Collector
	var rec *journey.Recorder
	if p.cfg.ReportDir != "" {
		col = metrics.NewCollector(0)
		if p.cfg.JourneyEveryN > 0 {
			rec = journey.NewRecorder(p.cfg.JourneyEveryN, true)
		}
	}
	for _, c := range p.cells {
		cellCol, cellRec := col, rec
		if c.discovery {
			cellCol, cellRec = nil, nil
		}
		for r := range c.errs {
			var pe *sim.PanicError
			if !errors.As(c.errs[r], &pe) {
				continue
			}
			for attempt := 0; attempt < p.cfg.Retries && c.errs[r] != nil; attempt++ {
				if p.interrupted() {
					return
				}
				if p.cfg.RetryBackoff > 0 {
					time.Sleep(p.cfg.RetryBackoff)
				}
				c.retries++
				eng := sim.NewEngine()
				eng.SetWatch(watch)
				c.errs[r] = runContained(func() error {
					if watch != nil {
						watch.BeginJob()
						defer watch.EndJob()
					}
					return p.runJob(c, r, eng, cellCol, cellRec)
				})
			}
		}
	}
}

// run executes every registered cell's replications across one worker pool,
// then finalizes cells in registration order. A failing replication — by
// error or by recovered panic — does not abort the sweep: every remaining
// job still runs (minus bounded retries of crashed ones), every cell whose
// replications all succeeded is finalized normally, and the failures come
// back aggregated in a *PartialError (in registration/seed order, not
// completion order). With ReportDir set, clean cells are checkpointed
// atomically as they complete the pass; with Resume, fingerprint-matched
// checkpoints are loaded instead of re-run; with Interrupted, the pool
// drains gracefully and ErrInterrupted is returned (joined with any
// PartialError).
func (p *planner) run() error {
	if p.cfg.Reps <= 0 {
		return fmt.Errorf("experiments: non-positive replication count %d", p.cfg.Reps)
	}
	if p.cfg.ReportDir != "" {
		if err := p.syncManifest(); err != nil {
			return err
		}
	}
	type job struct {
		c   *cell
		rep int
	}
	jobs := make([]job, 0, len(p.cells)*p.cfg.Reps)
	for _, c := range p.cells {
		if p.cfg.Resume && p.cfg.ReportDir != "" && loadCellReport(p.cfg.ReportDir, c, p.cfg.Reps) {
			continue
		}
		if c.discovery {
			c.dres = make([]sim.DiscoveryResult, p.cfg.Reps)
		} else {
			c.results = make([]sim.Result, p.cfg.Reps)
			if p.cfg.ReportDir != "" {
				c.counters = make([]map[string]uint64, p.cfg.Reps)
				if p.cfg.JourneyEveryN > 0 {
					c.journeys = make([]*journey.Agg, p.cfg.Reps)
				}
			}
		}
		c.errs = make([]error, p.cfg.Reps)
		for r := 0; r < p.cfg.Reps; r++ {
			jobs = append(jobs, job{c, r})
		}
		if p.cfg.Progress != nil {
			p.cfg.Progress.AddJobs(c.label, p.cfg.Reps)
		}
	}
	// Each worker owns one warm engine for its whole share of the job
	// set: consecutive jobs reuse the allocated network (resetting it in
	// place) instead of rebuilding it per replication. Results are
	// bit-identical to cold runs — see the sim.Engine determinism
	// contract.
	numWorkers := sim.ResolveWorkers(len(jobs), p.cfg.Workers)
	engines := make([]*sim.Engine, numWorkers)
	// One warm counters-only collector per worker when per-cell reports
	// are on; each job copies its counter map out after the run.
	var collectors []*metrics.Collector
	if p.cfg.ReportDir != "" {
		collectors = make([]*metrics.Collector, numWorkers)
	}
	// Likewise one warm journey recorder per worker: each job aggregates
	// the recorder's contents into its own per-rep Agg before the worker
	// moves on, and RunJourney's Begin recycles the recorder per run.
	var recorders []*journey.Recorder
	if p.cfg.ReportDir != "" && p.cfg.JourneyEveryN > 0 {
		recorders = make([]*journey.Recorder, numWorkers)
	}
	// The watchdog gets one progress channel per worker plus one for the
	// sequential retry pass. Each index of skipped is written by at most
	// one worker and read only after the pool joins.
	var watches []*des.Watch
	if p.cfg.StallBudget > 0 && len(jobs) > 0 {
		watches = make([]*des.Watch, numWorkers+1)
		for i := range watches {
			watches[i] = new(des.Watch)
		}
		stop := watchStalls(watches, p.cfg.StallBudget)
		defer stop()
	}
	skipped := make([]bool, len(jobs))
	panics := sim.ParallelForWorkers(len(jobs), p.cfg.Workers, func(worker, i int) {
		if p.interrupted() {
			skipped[i] = true
			return
		}
		eng := engines[worker]
		if eng == nil {
			eng = sim.NewEngine()
			if watches != nil {
				eng.SetWatch(watches[worker])
			}
		}
		// Leave the slot empty until the run returns: an engine that
		// panicked mid-run holds arbitrary partial state and must not be
		// reused warm by this worker's next job.
		engines[worker] = nil
		j := jobs[i]
		var col *metrics.Collector
		if collectors != nil && !j.c.discovery {
			col = collectors[worker]
			if col == nil {
				col = metrics.NewCollector(0)
				collectors[worker] = col
			}
		}
		var rec *journey.Recorder
		if recorders != nil && !j.c.discovery {
			rec = recorders[worker]
			if rec == nil {
				rec = journey.NewRecorder(p.cfg.JourneyEveryN, true)
				recorders[worker] = rec
			}
		}
		if watches != nil {
			watches[worker].BeginJob()
			defer watches[worker].EndJob()
		}
		j.c.errs[j.rep] = p.runJob(j.c, j.rep, eng, col, rec)
		engines[worker] = eng
		if p.cfg.Progress != nil {
			p.cfg.Progress.JobDone(j.c.label)
		}
	})
	for i, err := range panics {
		if err != nil {
			jobs[i].c.errs[jobs[i].rep] = err
		}
	}
	for i := range jobs {
		if skipped[i] {
			jobs[i].c.skipped = true
		}
	}
	if p.cfg.Retries > 0 && !p.interrupted() {
		var retryWatch *des.Watch
		if watches != nil {
			retryWatch = watches[numWorkers]
		}
		p.retryFailed(retryWatch)
	}
	var failures []CellFailure
	interrupted := false
	for _, c := range p.cells {
		if c.skipped {
			// Some replications never ran: not a failure, just unfinished
			// work a resumed sweep will pick up.
			interrupted = true
			continue
		}
		clean := true
		for r, err := range c.errs {
			if err != nil {
				clean = false
				failures = append(failures, CellFailure{
					Label: c.label, Seed: c.sc.Seed + uint64(r), Err: err,
				})
			}
		}
		if clean {
			c.finalize(c)
			if p.cfg.ReportDir != "" && !c.loaded {
				if err := writeCellReport(p.cfg.ReportDir, c); err != nil {
					failures = append(failures, CellFailure{Label: c.label, Seed: c.sc.Seed, Err: err})
				}
			}
		}
	}
	var errs []error
	if len(failures) > 0 {
		errs = append(errs, &PartialError{Failures: failures})
	}
	if interrupted {
		errs = append(errs, ErrInterrupted)
	}
	return errors.Join(errs...)
}
