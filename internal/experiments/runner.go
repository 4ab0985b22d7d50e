package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/sim"
)

// ErrInterrupted reports a sweep stopped by Config.Interrupted: in-flight
// replications were drained, completed cells were finalized (and
// checkpointed when ReportDir is set), and the rest never ran. Re-running
// with Config.Resume picks up exactly where this run stopped.
var ErrInterrupted = errors.New("experiments: sweep interrupted; completed cells were checkpointed")

// errNotRun marks a replication the pool skipped because the sweep was
// interrupted before it started: unfinished work, not a failure.
var errNotRun = errors.New("experiments: replication not run (sweep interrupted)")

// CellFailure records one failed replication of one cell: which sweep
// point, which seed, and why (an ordinary error or a recovered
// *PanicError carrying the goroutine stack).
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

// PanicError wraps a panic recovered from one replication, preserving the
// panic value and the goroutine stack at the point of failure.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// runContained invokes fn, recovering a panic into a *PanicError: one
// poisoned replication out of thousands must not take down a whole sweep.
func runContained(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
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

	results []sim.Result
	// counters holds each replication's per-layer counter snapshot when
	// Config.ReportDir enables per-cell reports.
	counters []map[string]uint64
	// journeys holds each replication's journey aggregate beside its
	// counters; the entries stay nil unless Config.JourneyEveryN also arms
	// packet-journey tracing.
	journeys []*journey.Agg
	errs     []error
	// retries counts, per replication, the re-attempts consumed healing
	// crashes. It is per replication because two workers may retry reps
	// of one cell at once; CellReport.Retries is the sum.
	retries []int

	// checkpoint is the parsed resume checkpoint the cell's replications
	// were loaded from instead of running; nil for a cell that ran.
	checkpoint *CellReport

	finalize func(*cell)
}

func newPlanner(cfg Config) *planner { return &planner{cfg: cfg} }

// add registers a cell. finalize runs after every job in the
// planner has completed, with c.results holding the replications in seed
// order. Config.Audit arms the auditor on top of the scenario's own
// Audit, never in place of it.
func (p *planner) add(label string, sc sim.Scenario, finalize func(c *cell)) {
	sc.Audit = sc.Audit || p.cfg.Audit
	p.cells = append(p.cells, &cell{label: label, sc: sc, finalize: finalize})
}

// interrupted polls Config.Interrupted.
func (p *planner) interrupted() bool {
	return p.cfg.Interrupted != nil && p.cfg.Interrupted()
}

// worker is one pool goroutine's reusable state for its whole share of the
// job set: an Observer, whose warm engine consecutive jobs reset in place
// (results are bit-identical to cold runs — see the sim.Engine determinism
// contract), and opts, the instruments every job runs with: with per-cell
// reports on, a counters-only collector and the journey recorder, and
// with the watchdog armed, the worker's progress channel.
type worker struct {
	obs  sim.Observer
	opts sim.ObserveOptions
}

// runJob runs replication rep of c on w. A crash — a panic, watchdog kills
// included — is retried in place on a fresh engine with the same derived
// seed, up to Config.Retries times with Config.RetryBackoff before each
// attempt, until an interrupt stops it. A flaky failure heals, computing
// exactly the result an uncrashed run would have; a deterministic one
// fails every attempt and stays a poisoned cell.
func (p *planner) runJob(w *worker, c *cell, rep int) error {
	err := p.attempt(w, c, rep)
	for range p.cfg.Retries {
		var pe *PanicError
		if !errors.As(err, &pe) || p.interrupted() {
			break
		}
		if p.cfg.RetryBackoff > 0 {
			time.Sleep(p.cfg.RetryBackoff)
		}
		c.retries[rep]++
		err = p.attempt(w, c, rep)
	}
	return err
}

// attempt runs replication rep of c once on w, storing the result (and,
// with per-cell reports on, the run's counter snapshot and journey
// aggregate) into the cell's seed-ordered slices, and returns the run
// error or the recovered panic. After a panic the Observer runs the next
// attempt on a fresh engine.
func (p *planner) attempt(w *worker, c *cell, rep int) error {
	return runContained(func() error {
		if watch := w.opts.Watch; watch != nil {
			watch.BeginJob()
			defer watch.EndJob()
		}
		sc := c.sc
		sc.Seed += uint64(rep)
		var err error
		c.results[rep], err = w.obs.Run(sc, w.opts)
		if err == nil && w.opts.Collect {
			c.counters[rep] = w.obs.Collector().Counters().Map()
			c.journeys[rep] = w.obs.Journey()
		}
		return err
	})
}

// watchStalls starts the watchdog monitor over the workers' progress
// channels: a watch that is inside a job whose published simulated clock
// has not moved for more than budget wall-clock time is aborted, which
// makes the DES kernel panic with *des.StallError at its next progress
// check — recovered by runContained into a poisoned-cell PanicError. The
// returned stop function terminates the monitor.
//
// A handler that never returns control to the kernel cannot be killed
// this way (see des.Watch); the watchdog targets the realistic failure
// shape, zero-delay event livelock, where events keep executing but
// simulated time stops advancing.
func watchStalls(workers []*worker, budget time.Duration) (stop func()) {
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
		last := make([]mark, len(workers))
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			wall := time.Now()
			for i, w := range workers {
				gen, running, now, _ := w.opts.Watch.Snapshot()
				if !running || gen != last[i].gen || now != last[i].now {
					last[i] = mark{gen: gen, now: now, since: wall}
					continue
				}
				if wall.Sub(last[i].since) > budget {
					w.opts.Watch.Abort()
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// run executes every registered cell's replications across one worker pool,
// then finalizes cells in registration order. A failing replication — by
// error or by recovered panic — does not abort the sweep: every remaining
// job still runs (crashed ones retried in place up to Config.Retries),
// every cell whose replications all succeeded is finalized normally, and
// the failures come back aggregated in a *PartialError (in
// registration/seed order, not completion order). With ReportDir set,
// clean cells are checkpointed atomically as they complete the pass; with
// Resume, fingerprint-matched checkpoints are loaded instead of re-run;
// with Interrupted, the pool drains gracefully and ErrInterrupted is
// returned (joined with any PartialError).
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
		c.results = make([]sim.Result, p.cfg.Reps)
		if p.cfg.ReportDir != "" {
			c.counters = make([]map[string]uint64, p.cfg.Reps)
			c.journeys = make([]*journey.Agg, p.cfg.Reps)
		}
		c.errs = make([]error, p.cfg.Reps)
		c.retries = make([]int, p.cfg.Reps)
		for r := 0; r < p.cfg.Reps; r++ {
			jobs = append(jobs, job{c, r})
		}
		if p.cfg.Progress != nil {
			p.cfg.Progress.AddJobs(c.label, p.cfg.Reps)
		}
	}
	// A bounded pool drains a shared atomic counter, so thousands of jobs
	// cost a handful of goroutines. Each goroutine owns one worker, and
	// each job writes only its own (cell, rep) slots, so nothing is locked.
	n := p.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var opts sim.ObserveOptions
	if p.cfg.ReportDir != "" {
		opts = sim.ObserveOptions{Collect: true, JourneyEvery: p.cfg.JourneyEveryN}
	}
	workers := make([]*worker, min(n, len(jobs)))
	for i := range workers {
		workers[i] = &worker{opts: opts}
		if p.cfg.StallBudget > 0 {
			workers[i].opts.Watch = new(des.Watch)
		}
	}
	if p.cfg.StallBudget > 0 && len(workers) > 0 {
		defer watchStalls(workers, p.cfg.StallBudget)()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(workers))
	for _, w := range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				j := jobs[i]
				if p.interrupted() {
					j.c.errs[j.rep] = errNotRun
					continue
				}
				j.c.errs[j.rep] = p.runJob(w, j.c, j.rep)
				if p.cfg.Progress != nil {
					p.cfg.Progress.JobDone(j.c.label)
				}
			}
		}()
	}
	wg.Wait()
	var failures []CellFailure
	interrupted := false
	for _, c := range p.cells {
		if slices.Contains(c.errs, errNotRun) {
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
			if p.cfg.ReportDir != "" && c.checkpoint == nil {
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
