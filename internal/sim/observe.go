package sim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/mac"
	"clnlr/internal/metrics"
	"clnlr/internal/routing"
	"clnlr/internal/traffic"
)

// RunJourney is the fully instrumented run entry point: Run plus an
// optional stall watchdog, metrics collector and journey recorder. Every
// hook is nil-checked — a run with (nil, nil, nil) is exactly Run. The
// watch, when non-nil, is this run's progress channel to a watchdog
// monitor (des.Watch); a nil watch detaches the one a previous run on
// this engine had. The collector, when non-nil, receives
//
//   - a per-node time-series: every SampleInterval of simulated time one
//     tick of a DES train snapshots each node's cross-layer state (MAC
//     queue/busy/load, routing-table and dup-cache occupancy, liveness)
//     into series sized for the whole run;
//   - per-layer monotonic counters over the measurement window (radio,
//     MAC, routing) plus fault schedule counts, folded in at run end;
//   - the run envelope (simulated time, DES events executed, wall clock).
//
// The measurement window opens with a reset: at Warmup every node's
// Agent.Ctr and Mac.Ctr and the medium's four counters are zeroed, so
// after a run they always hold the window, not the whole run. Energy is
// the one reading taken there instead: Joules is a float, and only
// end − warm keeps its bits.
//
// Determinism: sampler handlers only read protocol state (the dup-cache
// count settles its own expiry log, which no lookup consults) and never
// touch an RNG, so an instrumented run produces a bit-identical Result to
// an uninstrumented one, and the collected series/counters are themselves
// bit-identical across the radio fast/reference paths and warm/cold
// engines (proven by the golden tests in observe_test.go).
//
// The recorder, when non-nil, is armed with the warm-up boundary and the
// dedicated journey-sampling stream (rng label 8000 — a pure function of
// the scenario seed, so warm/cold engines and resumed sweeps sample the
// same flows) and installed on every node's routing core and MAC. With
// decisions on it also keeps the routing core's route events. Journey
// hooks only observe — the run's Result stays bit-identical to a rec=nil
// run (pinned by the golden suite in journey_test.go).
func (e *Engine) RunJourney(sc Scenario, watch *des.Watch, col *metrics.Collector, rec *journey.Recorder) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	var wallStart time.Time
	if col != nil {
		wallStart = time.Now()
	}
	end := sc.Warmup + sc.Measure
	run, err := e.begin(sc, end, watch, rec)
	if err != nil {
		return Result{}, err
	}
	if col != nil {
		e.startSampler(col, end)
	}

	if e.mgr == nil {
		e.mgr = traffic.NewManager(e.simk, e.nodes, sc.Routing.TTL, sc.Warmup)
	} else {
		e.mgr.Reset(e.simk, e.nodes, sc.Routing.TTL, sc.Warmup)
	}
	mgr := e.mgr
	flows, err := pickFlows(sc, run.tp, run.master.Derive(2000), e.flows[:0])
	if err != nil {
		return Result{}, err
	}
	e.flows = flows
	addFlows(mgr, flows, &run.master)

	e.simk.AtCall(sc.Warmup, (*windowOpener)(e), 0, 0)
	// Probes are scheduled after the window's opening: the first leaves
	// at Warmup too, equal-time events run in scheduling order, and the
	// window's reset must not erase that probe's RREQ.
	if sc.Probes {
		if err := addProbes(mgr, sc, run.tp, &run.master, len(flows)); err != nil {
			return Result{}, err
		}
	}
	e.simk.RunUntil(end)

	if rec != nil {
		rec.EndRun(end)
	}
	r := extract(sc, e.nodes, mgr, e.warmJoules)
	if sc.Probes {
		foldProbes(&r, mgr, sc, len(flows))
	}
	if col != nil {
		e.foldCounters(col, run.crashEvents, run.recoverEvents)
		col.FinishRun(end, e.simk.Executed(), time.Since(wallStart))
	}
	return r, run.auditErr()
}

// DefaultSampleInterval is the sampling period a caller that names none
// gets: meshsim's -metrics-interval default and meshsimd's, which must
// agree for the CLI's and the daemon's report bytes to match.
const DefaultSampleInterval = 100 * des.Millisecond

// ObserveOptions selects the instruments of one Observer run.
type ObserveOptions struct {
	Collect      bool     // arm the metrics collector,
	Interval     des.Time // sampling every Interval (≤ 0: counters only)
	JourneyEvery int      // trace journeys and decisions on 1-in-N flows (0: off)
	Watch        *des.Watch
}

// Observer is the one observed-run path: meshsim -report, meshsimd's
// /v1/run and the sweep planner's per-cell reports all run through one.
// It keeps a warm engine and the instruments its runs fill: the collector
// once a run has asked for one, the journey recorder while the divisor
// stays. A run that asks for neither keeps them aside, so runs with and
// without instruments can alternate on one Observer without rebuilding
// them. The zero value is ready to use; it is not safe for concurrent
// use.
type Observer struct {
	eng *Engine
	col *metrics.Collector
	rec *journey.Recorder
	// colOn and recOn say whether the last run had col and rec.
	colOn, recOn bool
	agg          *journey.Agg // this run's journey fold, made by Journey
}

// Run executes sc with the instruments opts selects (see
// Engine.RunJourney). An engine whose run panicked holds arbitrary
// partial state, so the engine slot stays empty until the run returns:
// the run after a panic starts on a fresh engine.
func (o *Observer) Run(sc Scenario, opts ObserveOptions) (Result, error) {
	o.colOn, o.recOn = opts.Collect, opts.JourneyEvery > 0
	if o.colOn && o.col == nil {
		o.col = metrics.NewCollector(opts.Interval)
	} else if o.colOn {
		o.col.SetSampleInterval(opts.Interval)
	}
	if o.recOn && (o.rec == nil || o.rec.EveryN() != opts.JourneyEvery) {
		o.rec = journey.NewRecorder(opts.JourneyEvery, true)
	}
	eng := o.eng
	if eng == nil {
		eng = NewEngine()
	}
	o.eng, o.agg = nil, nil
	r, err := eng.RunJourney(sc, opts.Watch, o.Collector(), o.Recorder())
	o.eng = eng
	return r, err
}

// Collector returns the last run's metrics collector, nil if it had none.
func (o *Observer) Collector() *metrics.Collector {
	if !o.colOn {
		return nil
	}
	return o.col
}

// Recorder returns the last run's journey recorder, nil if it had none.
func (o *Observer) Recorder() *journey.Recorder {
	if !o.recOn {
		return nil
	}
	return o.rec
}

// Journey returns the last run's journeys folded into an aggregate (made
// once per run), nil if it had no recorder.
func (o *Observer) Journey() *journey.Agg {
	if o.recOn && o.agg == nil {
		o.agg = journey.NewAgg(o.rec.EveryN())
		o.rec.Aggregate(o.agg)
	}
	return o.agg
}

// Report returns the last run's RunReport, r its Result, with the
// journey section when it had a recorder. The run must have collected.
func (o *Observer) Report(sc Scenario, r Result) metrics.RunReport {
	rep := BuildReport(sc, r, o.Collector())
	if agg := o.Journey(); agg != nil {
		rep.Journey = agg.Report()
	}
	return rep
}

// sampler is the flight recorder's typed-event handler: one read-only
// snapshot of every node's cross-layer state per tick. A struct on the
// engine (rather than a capturing closure in a des.Func) so arming the
// sampling train allocates nothing.
type sampler struct {
	e   *Engine
	col *metrics.Collector
}

// HandleEvent implements des.Handler: take one sample tick.
func (s *sampler) HandleEvent(int32, uint32) {
	e, col := s.e, s.col
	col.BeginTick(e.simk.Now())
	for i, n := range e.nodes {
		ls := n.Mac.LoadStats()
		col.Set(i, metrics.Sample{
			Queue:    n.Mac.QueueLen(),
			QueueOcc: ls.QueueOcc,
			BusyFrac: ls.BusyFrac,
			Load:     ls.Load,
			Routes:   n.Agent.TableSize(),
			DupCache: n.Agent.DupCacheLen(),
			Up:       !n.Radio.Down(),
		})
	}
}

// startSampler opens the collector for the run, its series sized for
// every tick, and schedules one read-only sampling tick per SampleInterval
// over [0, end] (end inclusive: RunUntil executes events at exactly the
// horizon). The ticks are one des train, scheduled here in full: the
// event sequence stays a pure function of the scenario — no
// handler-dependent rescheduling — matching how fault schedules are
// materialised, while the event list holds one sampler event at a time.
func (e *Engine) startSampler(col *metrics.Collector, end des.Time) {
	interval := col.SampleInterval()
	ticks := 0
	if interval > 0 {
		ticks = int(end/interval) + 1
	}
	col.Begin(len(e.nodes), ticks)
	e.smp = sampler{e: e, col: col}
	scheduleTicks(e.simk, &e.smp, interval, ticks)
}

// scheduleTicks queues the sampler's n ticks, one per interval from t = 0.
// It is a variable so the test suite can put the eager reference — n
// separate AtCalls — in its place and compare the recorded bytes.
var scheduleTicks = trainTicks

func trainTicks(simk *des.Sim, s *sampler, interval des.Time, n int) {
	simk.AtTrain(0, interval, n, s, 0, 0)
}

// windowOpener is the Engine as the des.Handler of its one typed event,
// the opening of the measurement window (openWindow).
type windowOpener Engine

// HandleEvent implements des.Handler.
func (w *windowOpener) HandleEvent(int32, uint32) { (*Engine)(w).openWindow() }

// openWindow opens the measurement window at Warmup: the routing, MAC
// and medium counters restart from zero, and each node's energy meter is
// read (see RunJourney).
func (e *Engine) openWindow() {
	e.warmJoules = e.warmJoules[:0]
	for _, n := range e.nodes {
		n.Agent.Ctr = routing.Counters{}
		n.Mac.Ctr = mac.Counters{}
		e.warmJoules = append(e.warmJoules, n.Mac.Energy().Joules)
	}
	m := e.medium
	m.Transmissions, m.Deliveries, m.Corruptions, m.ImpairDrops = 0, 0, 0, 0
}

// foldCounters sums the per-layer counters of the measurement window
// across all nodes into the collector's registry.
// Names are namespaced by layer ("mac/retries", "routing/rreq-originated",
// "radio/transmissions", "fault/crash-events").
func (e *Engine) foldCounters(col *metrics.Collector, crashEvents, recoverEvents uint64) {
	for _, n := range e.nodes {
		n.Agent.Ctr.Fold(col.Add)
		n.Mac.Ctr.Fold(col.Add)
	}
	m := e.medium
	col.Add("radio/transmissions", m.Transmissions)
	col.Add("radio/deliveries", m.Deliveries)
	col.Add("radio/corruptions", m.Corruptions)
	col.Add("radio/impair-drops", m.ImpairDrops)

	col.Add("fault/crash-events", crashEvents)
	col.Add("fault/recover-events", recoverEvents)

	// Pool high-water marks. Only the deterministic peaks are folded:
	// pending events (the sampling train counts as one) and concurrent
	// transmissions are pure functions of the event sequence
	// (bit-identical across fast/reference paths and warm/cold engines),
	// whereas free-list lengths depend on what a warm pool carried over
	// and would break the golden counter contract.
	col.Add("des/pending-hw", uint64(e.simk.PendingHighWater()))
	col.Add("radio/tx-inflight-hw", uint64(e.medium.TxInFlightHW()))

	// The audible-set memo's work goes into the diagnostics registry, not
	// Counters: the reference radio path rebuilds no audible set.
	col.AddDiag("radio/audible-rebuilds", e.medium.AudibleRebuilds())
}

// ModelVersion names the simulation model: what a scenario's report bytes
// are, given the scenario. Bump it in any change that moves an identity
// line (scripts/report_identity.sh), or any scenario's report, so that
// results computed before the change are told apart from results computed
// after it. meshsimd folds it into its content address: a cache directory
// written under another version is a miss, not a stale answer.
//
// Version 2: a MAC acts only on the completion of a frame it put on the
// air for the frame in service, so the end of a frame a crash left on the
// air no longer ends a frame put in service after a fast recovery. No
// identity line moves; churn whose recoveries come within a frame's
// airtime does (meshsim -mttf 300ms -mttr 1ms -rate 50 -flows 20).
//
// Version 3: the RREQ duplicate cache never forgets a live flood. It kept
// eight per origin and overwrote a live one past that, so a late copy of
// the forgotten flood was rebroadcast as new. Scenarios where a node held
// more than eight live floods from one origin can move: the loaded figure
// points (meshsim -session 10s -rate 20) and mobility under churn do.
//
// Version 4: every pool keeps every value given back, so none counts
// drops. No Result, counter, series or journey byte moves; the report
// loses three diagnostics keys: des/free-list-drops, pkt/pool-drops and
// radio/tx-pool-drops.
const ModelVersion = 4

// Fingerprint returns a stable 64-bit hash of the scenario's JSON form —
// the identity stamp RunReports carry so results can be traced back to
// the exact configuration that produced them.
func (s Scenario) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("sim: fingerprint marshal: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// BuildReport assembles the machine-readable RunReport for one observed
// run: scenario identity, run envelope, folded counters and the Result's
// headline metrics.
func BuildReport(sc Scenario, r Result, col *metrics.Collector) metrics.RunReport {
	rep := metrics.RunReport{
		Name:        sc.Name,
		Scheme:      string(sc.Scheme),
		Seed:        sc.Seed,
		Nodes:       r.Nodes,
		Fingerprint: sc.Fingerprint(),

		SimSeconds:     col.SimTime().Seconds(),
		WallSeconds:    col.Wall().Seconds(),
		EventsExecuted: col.Events(),

		SampleIntervalSec: col.SampleInterval().Seconds(),
		Samples:           col.Ticks(),

		Counters: col.Counters().Map(),
		Metrics: map[string]float64{
			"sent":              float64(r.Sent),
			"delivered":         float64(r.Delivered),
			"pdr":               r.PDR,
			"mean_delay_ms":     r.MeanDelaySec * 1000,
			"p50_delay_ms":      r.DelayP50Sec * 1000,
			"p95_delay_ms":      r.DelayP95Sec * 1000,
			"p99_delay_ms":      r.DelayP99Sec * 1000,
			"throughput_kbps":   r.ThroughputKbps,
			"rreq_tx":           float64(r.RREQTx),
			"control_tx":        float64(r.ControlTx),
			"rreq_per_disc":     r.RREQPerDiscovery,
			"norm_overhead":     r.NormOverhead,
			"discovery_rate":    r.DiscoveryRate,
			"forward_mean":      r.ForwardMean,
			"forward_std":       r.ForwardStd,
			"forward_max_ratio": r.ForwardMaxRatio,
			"mac_queue_drops":   float64(r.MACQueueDrops),
			"mac_retry_drops":   float64(r.MACRetryDrops),
			"energy_mean_j":     r.EnergyMeanJ,
			"energy_max_j":      r.EnergyMaxJ,
			"flow_fairness":     r.FlowFairness,
		},
	}
	if col.Diagnostics().Len() > 0 {
		rep.Diagnostics = col.Diagnostics().Map()
	}
	if rep.WallSeconds > 0 {
		rep.SimPerWall = rep.SimSeconds / rep.WallSeconds
	}
	return rep
}
