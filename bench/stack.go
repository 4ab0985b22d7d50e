package main

// stack.go is the benchmark's only binding to the simulator: every call
// into clnlr/internal/* goes through this file, and only through exported
// functions a later refactor is expected to keep. It must not reference
// Scenario.LegacyRadio, ReferenceRadio, ReferenceQueue, RunTraced or
// RunObserved: ROADMAP deletes or merges those, and a change that does so
// may not edit the benchmark.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"clnlr/internal/buildinfo"
	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/geom"
	"clnlr/internal/journey"
	"clnlr/internal/mac"
	"clnlr/internal/metrics"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/serve"
	"clnlr/internal/sim"
)

type (
	scenario   = sim.Scenario
	runResult  = sim.Result
	serveStats = serve.Stats
)

func buildCommit() string {
	bi := buildinfo.Get()
	if bi.Dirty {
		return bi.Commit + "+dirty"
	}
	return bi.Commit
}

// ---- scenarios ----

func simTime(d time.Duration) des.Time { return des.Time(d) }

// paperScenario is Table R-1's operating point with 10 s sessions, so
// route discovery keeps happening inside the measurement window.
func paperScenario(measure time.Duration) scenario {
	sc := sim.DefaultScenario()
	sc.SessionTime = 10 * des.Second
	sc.Measure = simTime(measure)
	return sc
}

func gridScenario(measure time.Duration) scenario {
	sc := paperScenario(measure)
	sc.Rows, sc.Cols, sc.AreaM, sc.Flows = 15, 15, 2142.857, 20
	return sc
}

func mobileScenario(measure time.Duration) scenario {
	sc := paperScenario(measure)
	sc.Topology = sim.TopoPerturbedGrid
	sc.Rows, sc.Cols, sc.AreaM, sc.Flows = 10, 10, 1428.57, 15
	sc.MobilitySpeed = 5
	sc.Faults.MeanUpTime = 60 * des.Second
	sc.Faults.MeanDownTime = 5 * des.Second
	sc.Faults.Link.MeanGood = 2 * des.Second
	sc.Faults.Link.MeanBad = 200 * des.Millisecond
	sc.Faults.Link.LossBad = 0.8
	return sc
}

func hotspotScenario(measure time.Duration) scenario {
	sc := paperScenario(measure)
	sc.Gateway, sc.Flows, sc.PacketRate = true, 20, 8
	return sc
}

func allSchemes() []string {
	var out []string
	for _, s := range sim.AllSchemes() {
		out = append(out, string(s))
	}
	return out
}

func withSchemeSeed(sc scenario, scheme string, seed uint64) scenario {
	sc = sc.WithScheme(sim.Scheme(scheme))
	sc.Seed = seed
	return sc
}

func withAudit(sc scenario) scenario {
	sc.Audit = true
	return sc
}

func simSeconds(sc scenario) float64 { return (sc.Warmup + sc.Measure).Seconds() }

// ---- engine ----

type engine struct{ e *sim.Engine }

func newEngine() *engine { return &engine{sim.NewEngine()} }

func (e *engine) run(sc scenario) (runResult, error) { return e.e.Run(sc) }

// observation is one run's instruments: a metrics collector (sampling
// every interval of simulated time, 0 = counters only) and optionally a
// journey recorder following every flow.
type observation struct {
	col *metrics.Collector
	rec *journey.Recorder
}

// newObservation builds the instruments of a run: a collector when
// collect is set (interval 0 = counters only) and a recorder following
// every flow when journeys is set. Instruments are reused warm across
// runs, as the sweep workers hold them.
func newObservation(collect bool, interval time.Duration, journeys bool) *observation {
	o := &observation{}
	if collect {
		o.col = metrics.NewCollector(simTime(interval))
	}
	if journeys {
		o.rec = journey.NewRecorder(1, true)
	}
	return o
}

func (e *engine) runObserved(sc scenario, o *observation) (runResult, error) {
	return e.e.RunJourney(sc, nil, o.col, o.rec)
}

func (o *observation) events() uint64             { return o.col.Events() }
func (o *observation) counter(name string) uint64 { return o.col.Counters().Get(name) }
func (o *observation) diag(name string) uint64    { return o.col.Diagnostics().Get(name) }

// reportBytes is the canonical RunReport of an observed run: the bytes
// meshsimd caches and serves. Diagnostics depend on what the previous run
// on a warm engine left pooled, so warm-against-cold comparisons drop them.
func reportBytes(sc scenario, r runResult, o *observation, keepDiagnostics bool) ([]byte, error) {
	rep := sim.BuildReport(sc, r, o.col)
	if o.rec != nil {
		agg := journey.NewAgg(o.rec.EveryN())
		o.rec.Aggregate(agg)
		rep.Journey = agg.Report()
	}
	if !keepDiagnostics {
		rep.Diagnostics = nil
	}
	var buf bytes.Buffer
	if err := rep.Canonical().WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding run report: %w", err)
	}
	return buf.Bytes(), nil
}

// journeySummary is the simulated-time delay decomposition merged over a
// round's runs.
type journeySummary struct {
	delayP50Ms, delayP99Ms, meanHops float64
	share                            map[string]float64 // layer mean / mean delay
}

type journeyAgg struct{ agg *journey.Agg }

func newJourneyAgg() *journeyAgg { return &journeyAgg{journey.NewAgg(1)} }

func (a *journeyAgg) add(o *observation) { o.rec.Aggregate(a.agg) }

func (a *journeyAgg) summary() journeySummary {
	rep := a.agg.Report()
	s := journeySummary{
		delayP50Ms: rep.Delay.P50Ms,
		delayP99Ms: rep.Delay.P99Ms,
		meanHops:   rep.MeanHops,
		share:      map[string]float64{},
	}
	for name, l := range rep.Layers {
		s.share[name] = ratio(l.MeanMs, rep.Delay.MeanMs)
	}
	return s
}

// ---- serve ----

type server struct{ s *serve.Server }

// newServer sizes the daemon for the 2-core reference box: never more
// worker threads than the two closed-loop clients that drive it.
func newServer(cacheDir string) (*server, error) {
	s, err := serve.New(serve.Config{Workers: 2, JobWorkers: 2, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	return &server{s}, nil
}

func (s *server) handler() http.Handler { return s.s.Handler() }
func (s *server) stats() serveStats     { return s.s.Stats() }
func (s *server) close() error          { return s.s.Shutdown(context.Background()) }

func runRequestBody(sc scenario) ([]byte, error) {
	raw, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.RunRequest{Scenario: raw})
}

func sweepRequestBody(sc scenario, schemes []string, reps int) ([]byte, error) {
	raw, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SweepRequest{Name: "bench-sweep", Scenario: raw, Schemes: schemes, Reps: reps})
}

// serveSampleInterval is the sampling interval /v1/run applies when the
// request names none.
const serveSampleInterval = 100 * time.Millisecond

// directRun computes what /v1/run serves for sc without the daemon: a
// cold engine, the default 100 ms collector, the canonical report bytes.
func directRun(sc scenario) ([]byte, error) {
	o := newObservation(true, serveSampleInterval, false)
	r, err := newEngine().runObserved(sc, o)
	if err != nil {
		return nil, err
	}
	return reportBytes(sc, r, o, true)
}

// runCells pushes the sweep's cells (one per scheme, reps replications
// each) straight through the experiments planner, as /v1/sweep does.
func runCells(sc scenario, schemes []string, reps, workers int, reportDir string, resume bool) error {
	specs := make([]experiments.CellSpec, len(schemes))
	for i, s := range schemes {
		specs[i] = experiments.CellSpec{Label: "bench-sweep " + s, Scenario: sc.WithScheme(sim.Scheme(s))}
	}
	cfg := experiments.Config{Reps: reps, Workers: workers, Seed: sc.Seed, ReportDir: reportDir, Resume: resume}
	cells, err := experiments.RunCells(cfg, specs)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if len(c.Results) != reps {
			return fmt.Errorf("cell %q has %d results, want %d", c.Label, len(c.Results), reps)
		}
	}
	return nil
}

// ---- kernels ----
//
// A kernel exercises one layer through its exported API only, sized from
// the workload's own scenario and counts. run(n) performs n operations;
// events reports the DES events the kernel's private simulator has
// executed, so the ledger does not charge those events to des a second
// time.

type kernel struct {
	run    func(n int)
	events func() uint64
}

type holdHandler struct {
	s      *des.Sim
	src    *rng.Source
	budget int
}

func (h *holdHandler) HandleEvent(int32, uint32) {
	h.s.ScheduleCall(des.Time(h.src.Intn(int(des.Millisecond))+1), h, 0, 0)
	h.budget--
	if h.budget == 0 {
		h.s.Stop()
	}
}

// desHoldKernel is the hold model: a steady population of pending events
// where every firing schedules its replacement.
func desHoldKernel(pending int) kernel {
	s := des.NewSim()
	h := &holdHandler{s: s, src: rng.New(1)}
	for i := 0; i < pending; i++ {
		s.ScheduleCall(des.Time(h.src.Intn(int(des.Millisecond))), h, 0, 0)
	}
	return kernel{
		run: func(n int) {
			h.budget = n
			s.RunUntil(des.MaxTime)
		},
		events: s.Executed,
	}
}

type idleListener struct{}

func (idleListener) RadioReceive(any, int, bool) {}
func (idleListener) RadioCarrier(bool)           {}
func (idleListener) RadioTxDone(any)             {}

func propagation() radio.Propagation { return radio.NewTwoRay(914e6, 1.5, 1.5) }

func gridPositions(sc scenario) []geom.Point {
	return geom.GridPlacement(geom.Square(sc.AreaM), sc.Rows, sc.Cols)
}

func dataFrame(sc scenario) (bytes int, airtime des.Time) {
	bytes = sc.PayloadBytes + pkt.IPHeaderBytes + pkt.UDPHeaderBytes + sc.Mac.DataHeaderBytes
	return bytes, sc.Mac.TxDuration(bytes, sc.Mac.DataRateBps)
}

// radioKernel broadcasts data-sized frames on a bare medium at the
// workload's grid positions and drains every arrival event. inflight
// frames start together from evenly spread transmitters (1 = isolated
// broadcast, more = the interference-sum path); move repositions the
// transmitter first, which invalidates the memoised audible sets.
func radioKernel(sc scenario, inflight int, move bool) kernel {
	s := des.NewSim()
	m := radio.NewMedium(s, propagation())
	pts := gridPositions(sc)
	radios := make([]*radio.Radio, len(pts))
	for i, p := range pts {
		radios[i] = m.Attach(p, sc.Radio)
		radios[i].SetListener(idleListener{})
	}
	if inflight < 1 {
		inflight = 1
	}
	if inflight > len(radios) {
		inflight = len(radios)
	}
	bytes, airtime := dataFrame(sc)
	next := 0
	return kernel{
		run: func(n int) {
			for done := 0; done < n; done += inflight {
				for j := 0; j < inflight; j++ {
					i := (next + j*len(radios)/inflight) % len(radios)
					if move {
						// Alternate a 1 cm offset on successive visits to a
						// node, so that its position really changes.
						p := pts[i]
						if (next/len(radios))%2 == 0 {
							p.X += 0.01
						}
						radios[i].SetPos(p)
					}
					radios[i].Transmit(nil, bytes, airtime)
				}
				next++
				s.RunUntil(s.Now() + airtime + des.Millisecond)
			}
		},
		events: s.Executed,
	}
}

// meanDegree is the mean number of in-range neighbours on the workload's
// grid.
func meanDegree(sc scenario) int {
	m := radio.NewMedium(des.NewSim(), propagation())
	pts := gridPositions(sc)
	for _, p := range pts {
		m.Attach(p, sc.Radio)
	}
	links := 0
	for i := range pts {
		for j := range pts {
			if i != j && m.InRange(i, j) {
				links++
			}
		}
	}
	return (links + len(pts)/2) / len(pts)
}

// macDriver is the stub network layer of the MAC kernels: the sender
// submits the next frame when the MAC reports the previous one done.
type macDriver struct {
	s         *des.Sim
	m         *mac.Mac
	pool      *pkt.Pool
	dst       pkt.NodeID
	sc        scenario
	seq       int
	remaining int
	failed    int
}

func (d *macDriver) MacReceive(p *pkt.Packet, _ pkt.NodeID) {
	// Unicast deliveries are private clones from this node's pool;
	// broadcast deliveries share the sender's packet and are not ours.
	if d.pool != nil && p.Dst != pkt.Broadcast {
		d.pool.Release(p)
	}
}

func (d *macDriver) MacTxDone(p *pkt.Packet, _ pkt.NodeID, ok bool) {
	if d.m == nil {
		return
	}
	if !ok {
		d.failed++
	}
	d.pool.Release(p)
	d.remaining--
	if d.remaining <= 0 {
		d.s.Stop()
		return
	}
	d.send()
}

func (d *macDriver) send() {
	d.seq++
	dst := d.dst
	p := d.pool.Data(0, dst, d.sc.PayloadBytes, 0, d.seq, d.s.Now(), 8)
	d.m.Send(p, dst)
}

// macKernel runs a saturated one-hop exchange between two MACs one grid
// spacing apart: unicast DATA/ACK per acknowledged frame, or broadcast.
func macKernel(sc scenario, broadcast bool) kernel {
	s := des.NewSim()
	m := radio.NewMedium(s, propagation())
	spacing := sc.AreaM / float64(sc.Cols)
	ra := m.Attach(geom.Point{}, sc.Radio)
	rb := m.Attach(geom.Point{X: spacing}, sc.Radio)
	src := rng.New(1)
	ma := mac.New(sc.Mac, s, ra, 0, src.Derive(0))
	mb := mac.New(sc.Mac, s, rb, 1, src.Derive(1))
	pa, pb := pkt.NewPool(), pkt.NewPool()
	ma.SetPool(pa)
	mb.SetPool(pb)
	dst := pkt.NodeID(1)
	if broadcast {
		dst = pkt.Broadcast
	}
	sender := &macDriver{s: s, m: ma, pool: pa, dst: dst, sc: sc}
	ma.SetUpper(sender)
	mb.SetUpper(&macDriver{pool: pb})
	return kernel{
		run: func(n int) {
			sender.remaining = n
			sender.send()
			s.Run()
		},
		events: s.Executed,
	}
}

func tableKernels(nodes int) (lookup, update kernel) {
	s := des.NewSim()
	t := routing.NewTable(s)
	route := func(i int, seq uint32) routing.Route {
		return routing.Route{
			Dst: pkt.NodeID(i), NextHop: pkt.NodeID((i + 1) % nodes), HopCount: 3, Cost: 3,
			Seq: seq, SeqValid: true, Expires: des.MaxTime, Valid: true,
		}
	}
	for i := 0; i < nodes; i++ {
		t.Update(route(i, 1))
	}
	next, seq := 0, uint32(1)
	lookup.run = func(n int) {
		for i := 0; i < n; i++ {
			if t.Lookup(pkt.NodeID(next)) == nil {
				panic("bench: routing.Table lost a route")
			}
			next = (next + 1) % nodes
		}
	}
	update.run = func(n int) {
		for i := 0; i < n; i++ {
			if next == 0 {
				seq++
			}
			t.Update(route(next, seq))
			next = (next + 1) % nodes
		}
	}
	return lookup, update
}

// dupCacheKernel alternates a first sighting and a repeat of it, the two
// outcomes a flooded RREQ produces at a node.
func dupCacheKernel(nodes int) kernel {
	d := routing.NewDupCache(des.NewSim(), 5*des.Second)
	origin, id := 0, uint32(0)
	return kernel{run: func(n int) {
		for i := 0; i < n; i += 2 {
			d.Seen(pkt.NodeID(origin), id)
			d.Seen(pkt.NodeID(origin), id)
			origin++
			if origin == nodes {
				origin = 0
				id++
			}
		}
	}}
}

var kernelSink float64

func neighborLoadKernel(degree int) kernel {
	s := des.NewSim()
	nt := routing.NewNeighborTable(s, 3*des.Second)
	twoHop := make([]pkt.NeighborLoad, degree)
	for i := range twoHop {
		twoHop[i] = pkt.NeighborLoad{ID: pkt.NodeID(degree + 1 + i), Load: 0.25}
	}
	for i := 1; i <= degree; i++ {
		nt.Update(pkt.NodeID(i), 0.1*float64(i%7), twoHop)
	}
	return kernel{run: func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += nt.NeighborhoodLoad(0, 0.3, i%2 == 0)
		}
	}}
}

func forwardProbKernel(degree int) kernel {
	p := core.Spec(routing.DefaultConfig(), core.DefaultParams()).Policy().(*core.Policy)
	return kernel{run: func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += p.ForwardProbability(float64(i%100)/100, degree)
		}
	}}
}

func pktKernels(sc scenario) (cycle, clone kernel) {
	pool := pkt.NewPool()
	cycle.run = func(n int) {
		for i := 0; i < n; i++ {
			pool.Release(pool.Data(0, 1, sc.PayloadBytes, 0, i, 0, 8))
		}
	}
	base := pool.Data(0, 1, sc.PayloadBytes, 0, 0, 0, 8)
	clone.run = func(n int) {
		for i := 0; i < n; i++ {
			pool.Release(pool.Clone(base))
		}
	}
	return cycle, clone
}
