package sim

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/fault"
	"clnlr/internal/journey"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/rng"
	"clnlr/internal/topo"
)

// quickScenario is a down-scaled default for fast tests.
func quickScenario() Scenario {
	sc := DefaultScenario()
	sc.Rows, sc.Cols = 5, 5
	sc.AreaM = 5 * gridSpacing()
	sc.Flows = 5
	sc.PacketRate = 4
	sc.Warmup = 3 * des.Second
	sc.Measure = 15 * des.Second
	return sc
}

func gridSpacing() float64 { return 1000.0 / 7 }

func TestValidateCatchesErrors(t *testing.T) {
	muts := []func(*Scenario){
		func(s *Scenario) { s.Topology = "hexagon" },
		func(s *Scenario) { s.Rows = 0 },
		func(s *Scenario) { s.Topology = TopoRandom; s.Nodes = 1 },
		func(s *Scenario) { s.Scheme = "ospf" },
		func(s *Scenario) { s.AreaM = -5 },
		func(s *Scenario) { s.Flows = 0 },
		func(s *Scenario) { s.PacketRate = 0 },
		func(s *Scenario) { s.PayloadBytes = 0 },
		func(s *Scenario) { s.PayloadBytes = 2_000_000_000 },
		func(s *Scenario) { s.Measure = 0 },
		func(s *Scenario) { s.Rows, s.Cols = 1, 1 },
		func(s *Scenario) { s.Warmup = -des.Second },
		func(s *Scenario) { s.TrafficStart = -des.Second },
		func(s *Scenario) { s.SessionTime = -des.Second },
		func(s *Scenario) { s.MobilitySpeed = -1 },
		func(s *Scenario) { s.MobilityPause = -des.Second },
		func(s *Scenario) { s.PerturbFrac = -0.1 },
		func(s *Scenario) { s.PerturbFrac = 1.5 },
		func(s *Scenario) { s.NakagamiM = -1 },
		func(s *Scenario) { s.Faults.MeanUpTime = -des.Second },
		func(s *Scenario) { s.Faults.MeanDownTime = -des.Second },
		func(s *Scenario) { s.Faults.Schedule = []fault.NodeEvent{{Node: -1}} },
		func(s *Scenario) { s.Faults.Schedule = []fault.NodeEvent{{Node: 0, At: -des.Second}} },
		func(s *Scenario) { s.Faults.Link.MeanBad = des.Second; s.Faults.Link.LossBad = 0.5 }, // enabled without MeanGood
		func(s *Scenario) {
			s.Faults.Link = fault.LinkParams{MeanGood: des.Second, MeanBad: des.Second, LossBad: 1.5}
		},
		func(s *Scenario) {
			s.Faults.Link = fault.LinkParams{MeanGood: des.Second, MeanBad: des.Second, LossBad: 0.5, LossGood: -0.1}
		},
		func(s *Scenario) {
			s.Faults.Link = fault.LinkParams{MeanGood: des.Second, MeanBad: des.Second, LossBad: 0.5, Slot: -des.Millisecond}
		},
	}
	for i, m := range muts {
		sc := DefaultScenario()
		m(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
}

// TestValidateChecksSelectedSchemeParams: parameters that would panic
// while the engine builds the selected scheme's agents are a Validate
// error instead, and Run returns it; the knobs of a scheme not selected
// are never read, so junk there still runs exactly as without it.
func TestValidateChecksSelectedSchemeParams(t *testing.T) {
	hostile := map[string]func(*Scenario){
		"clnlr PMin 2":                  func(s *Scenario) { s.Scheme = SchemeCLNLR; s.CLNLR.PMin = 2 },
		"clnlr-2hop DegRef 0":           func(s *Scenario) { s.Scheme = SchemeCLNLR2; s.CLNLR.DegRef = 0 },
		"clnlr HelloInterval 0":         func(s *Scenario) { s.Scheme = SchemeCLNLR; s.CLNLR.HelloInterval = 0 },
		"gossip-adaptive HelloInterval": func(s *Scenario) { s.Scheme = SchemeGossipAdaptive; s.Routing.HelloInterval = 0 },
		"counter RADMax -1":             func(s *Scenario) { s.Scheme = SchemeCounter; s.Counter.RADMax = -1 },
		"counter RADMax MaxInt64":       func(s *Scenario) { s.Scheme = SchemeCounter; s.Counter.RADMax = math.MaxInt64 },
	}
	for name, mut := range hostile {
		t.Run(name, func(t *testing.T) {
			sc := quickScenario()
			mut(&sc)
			if err := sc.Validate(); err == nil {
				t.Fatal("Validate accepted the scenario")
			}
			if _, err := NewEngine().Run(sc); err == nil {
				t.Fatal("Run accepted the scenario")
			}
		})
	}

	junk := func(s *Scenario) {
		s.CLNLR.PMin = 2
		s.CLNLR.HelloInterval = 0
		s.Counter.RADMax = -1
	}
	for _, scheme := range []Scheme{SchemeFlood, SchemeGossipAdaptive} {
		sc := quickScenario().WithScheme(scheme)
		want, err := NewEngine().Run(sc)
		if err != nil || want.Delivered == 0 {
			t.Fatalf("%s: %+v (%v)", scheme, want, err)
		}
		junk(&sc)
		if got, err := NewEngine().Run(sc); err != nil || got != want {
			t.Errorf("%s with junk in unused knobs: %+v (%v), want %+v", scheme, got, err, want)
		}
	}
}

// TestValidateRejectsUnrunnableMac: MAC settings the engine cannot run —
// a divide by zero, an empty backoff range, a frame of no airtime, a load
// clock that never advances — are a Validate error, and Run returns it
// before building anything.
func TestValidateRejectsUnrunnableMac(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*mac.Config)
	}{
		{"DataRateBps 0", func(m *mac.Config) { m.DataRateBps = 0 }},
		{"BasicRateBps 0", func(m *mac.Config) { m.BasicRateBps = 0 }},
		{"CWMin -1", func(m *mac.Config) { m.CWMin = -1 }},
		{"CWMax below CWMin", func(m *mac.Config) { m.CWMax = m.CWMin - 1 }},
		{"CWMax overflows", func(m *mac.Config) { m.CWMax = math.MaxInt64 }},
		{"SlotTime 0", func(m *mac.Config) { m.SlotTime = 0 }},
		{"SlotTime 0 SIFS 0", func(m *mac.Config) { m.SlotTime, m.SIFS = 0, 0 }},
		{"SIFS negative", func(m *mac.Config) { m.SIFS = -des.Microsecond }},
		{"LoadSampleInterval 0", func(m *mac.Config) { m.LoadSampleInterval = 0 }},
		{"QueueCap 0", func(m *mac.Config) { m.QueueCap = 0 }},
		{"RetryLimit 0", func(m *mac.Config) { m.RetryLimit = 0 }},
		{"LoadEWMAAlpha 0", func(m *mac.Config) { m.LoadEWMAAlpha = 0 }},
		{"LoadEWMAAlpha NaN", func(m *mac.Config) { m.LoadEWMAAlpha = math.NaN() }},
		{"QueueLoadWeight 1.5", func(m *mac.Config) { m.QueueLoadWeight = 1.5 }},
		{"PreambleTime negative", func(m *mac.Config) { m.PreambleTime = -des.Microsecond }},
		{"AckBytes negative", func(m *mac.Config) { m.AckBytes = -100 }},
		{"AckBytes huge", func(m *mac.Config) { m.AckBytes = 1 << 40 }},
		{"ACK of no airtime", func(m *mac.Config) { m.AckBytes, m.PreambleTime = 0, 0 }},
		{"RTSThreshold negative", func(m *mac.Config) { m.RTSThreshold = -1 }},
		{"AutoRate ladder rate 0", func(m *mac.Config) {
			m.AutoRate, m.RateLadder = true, [4]int64{0, 1_000_000, 2_000_000, 5_500_000}
		}},
		{"AutoRate ladder out of order", func(m *mac.Config) {
			m.AutoRate, m.RateLadder = true, [4]int64{2_000_000, 1_000_000, 5_500_000, 11_000_000}
		}},
		{"AutoRate ArfFailDown 0", func(m *mac.Config) { m.AutoRate, m.ArfFailDown = true, 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := quickScenario()
			c.mut(&sc.Mac)
			if err := sc.Validate(); err == nil {
				t.Fatal("Validate accepted the scenario")
			}
			if _, err := NewEngine().Run(sc); err == nil {
				t.Fatal("Run accepted the scenario")
			}
		})
	}
	// Settings that run stay accepted: a zero SIFS, and a zero preamble
	// while every frame still has bits.
	for _, mut := range []func(*mac.Config){
		func(m *mac.Config) { m.SIFS = 0 },
		func(m *mac.Config) { m.PreambleTime = 0 },
	} {
		sc := quickScenario()
		mut(&sc.Mac)
		if err := sc.Validate(); err != nil {
			t.Errorf("runnable MAC rejected: %v", err)
		}
	}
}

// TestDefaultScenarioAllocatesNothing: the default scenario is a plain
// value — the MAC's rate ladder is an array — so a caller that builds one
// per run allocates nothing for it.
func TestDefaultScenarioAllocatesNothing(t *testing.T) {
	var sc Scenario
	if n := testing.AllocsPerRun(10, func() { sc = DefaultScenario() }); n != 0 {
		t.Fatalf("DefaultScenario: %v allocs, want 0", n)
	}
	if sc.Mac.RateLadder != mac.DefaultConfig().RateLadder {
		t.Fatal("DefaultScenario's rate ladder is not the MAC's default")
	}
}

func TestRunAllSchemesLowLoad(t *testing.T) {
	for _, sch := range AllSchemes() {
		sch := sch
		t.Run(string(sch), func(t *testing.T) {
			r, err := NewEngine().Run(quickScenario().WithScheme(sch))
			if err != nil {
				t.Fatal(err)
			}
			if r.Sent == 0 {
				t.Fatal("no packets sent")
			}
			if r.PDR < 0.9 {
				t.Fatalf("low-load PDR %.3f below 0.9 (%d/%d)", r.PDR, r.Delivered, r.Sent)
			}
			if r.MeanDelaySec <= 0 || r.MeanDelaySec > 1 {
				t.Fatalf("implausible delay %v", r.MeanDelaySec)
			}
			if r.Nodes != 25 {
				t.Fatalf("nodes %d", r.Nodes)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := quickScenario().WithScheme(SchemeCLNLR)
	a, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same scenario diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	sc := quickScenario()
	a, _ := NewEngine().Run(sc)
	sc.Seed++
	b, _ := NewEngine().Run(sc)
	if a.Delivered == b.Delivered && a.MeanDelaySec == b.MeanDelaySec && a.ControlTx == b.ControlTx {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestSessionChurnKeepsDiscoveryAlive(t *testing.T) {
	sc := quickScenario()
	sc.SessionTime = 5 * des.Second
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.RREQTx == 0 {
		t.Fatal("session churn generated no discoveries in the measurement window")
	}
	// Without churn, a static mesh discovers everything during warm-up.
	sc.SessionTime = 0
	r2, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r2.RREQTx > r.RREQTx {
		t.Fatalf("immortal flows produced more measured RREQs (%d) than churned (%d)",
			r2.RREQTx, r.RREQTx)
	}
}

func TestGatewayWorkload(t *testing.T) {
	sc := quickScenario()
	sc.Gateway = true
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.PDR < 0.9 {
		t.Fatalf("gateway PDR %.3f", r.PDR)
	}
	// Hotspot traffic concentrates forwarding: max/mean well above 1.
	if r.ForwardMaxRatio < 1.5 {
		t.Fatalf("gateway workload max/mean %.2f suspiciously flat", r.ForwardMaxRatio)
	}
}

func TestRandomTopologyConnectivityRetry(t *testing.T) {
	sc := quickScenario()
	sc.Topology = TopoRandom
	sc.Nodes = 50
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.PDR < 0.8 {
		t.Fatalf("random topology PDR %.3f", r.PDR)
	}
}

func TestRandomTopologyImpossibleDensityFails(t *testing.T) {
	sc := quickScenario()
	sc.Topology = TopoRandom
	sc.Nodes = 4
	sc.AreaM = 20000 // 4 nodes in 400 km² cannot connect
	if _, err := NewEngine().Run(sc); err == nil {
		t.Fatal("impossibly sparse random topology did not error")
	}
}

// probeScenario is the unloaded discovery workload on quickScenario's
// grid: rounds probes, no background flows.
func probeScenario(rounds int) Scenario {
	sc := quickScenario()
	sc.Flows = 0
	sc.Probes = true
	sc.Measure = des.Time(rounds) * ProbeGap
	return sc
}

func TestRunDiscoveryBasics(t *testing.T) {
	sc := probeScenario(6)
	for _, sch := range []Scheme{SchemeFlood, SchemeCLNLR} {
		r, err := NewEngine().Run(sc.WithScheme(sch))
		if err != nil {
			t.Fatal(err)
		}
		if r.ProbesSent != 6 {
			t.Fatalf("%s: %d probes sent, want 6", sch, r.ProbesSent)
		}
		if s := MetricProbeSuccess(r); s < 0.99 {
			t.Fatalf("%s: unloaded discovery success %.2f", sch, s)
		}
		if q := MetricRREQPerProbe(r); q <= 1 {
			t.Fatalf("%s: rreq/round %.1f", sch, q)
		}
		if r.ProbeDelaySec <= 0 || r.ProbeDelaySec > 0.5 {
			t.Fatalf("%s: latency %v", sch, r.ProbeDelaySec)
		}
	}
}

func TestRunDiscoveryFloodCoversNetwork(t *testing.T) {
	sc := probeScenario(6)
	r, err := NewEngine().Run(sc.WithScheme(SchemeFlood))
	if err != nil {
		t.Fatal(err)
	}
	// Blind flooding: every non-target node rebroadcasts once, so RREQ
	// transmissions per round approach the node count (some floods stop
	// early at the target's neighbours; collisions lose a few).
	n := float64(sc.Rows * sc.Cols)
	if q := MetricRREQPerProbe(r); q < 0.5*n || q > 1.2*n {
		t.Fatalf("flood rreq/round %.1f implausible for %v nodes", q, n)
	}
}

// TestProbeFloodCostsNMinusOne: on the unloaded default 7×7 grid a flood
// discovery costs exactly N−1 = 48 RREQ transmissions — the source's and
// every node's but the target's — and every probe arrives. The count
// holds only if the window opens before the first probe leaves: the
// reset at Warmup must not erase round 0's RREQ origination.
func TestProbeFloodCostsNMinusOne(t *testing.T) {
	const rounds = 12
	sc := DefaultScenario().WithScheme(SchemeFlood)
	sc.Flows = 0
	sc.Probes = true
	sc.Measure = rounds * ProbeGap
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.RREQTx != 48*rounds {
		t.Errorf("flood sent %d RREQs over %d probes, want 48 × %d = %d", r.RREQTx, rounds, rounds, 48*rounds)
	}
	if r.ProbesSent != rounds || MetricProbeSuccess(r) != 1 {
		t.Errorf("%d of %d probes delivered, want all %d", r.ProbesDelivered, r.ProbesSent, rounds)
	}
}

func TestRunDiscoveryValidation(t *testing.T) {
	for name, mut := range map[string]func(*Scenario){
		"no rounds":              func(s *Scenario) { s.Measure = 0 },
		"window off the grid":    func(s *Scenario) { s.Measure += des.Second },
		"discovery outlasts gap": func(s *Scenario) { s.Routing.RREQRetries = 3 },
		"timeout outlasts gap":   func(s *Scenario) { s.Routing.DiscoveryTimeout = 2 * des.Second },
		"retries overflow":       func(s *Scenario) { s.Routing.RREQRetries = math.MaxInt },
		"no workload":            func(s *Scenario) { s.Probes = false },
	} {
		sc := probeScenario(5)
		mut(&sc)
		if _, err := NewEngine().Run(sc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewEngine().Run(probeScenario(1)); err != nil {
		t.Fatalf("one probe with no flows rejected: %v", err)
	}
}

// mobileDiscovery returns the unloaded discovery scenario, static and with
// nodes on random waypoints at up to 20 m/s.
func mobileDiscovery(rounds int) (static, mobile Scenario) {
	static = probeScenario(rounds)
	mobile = static
	mobile.MobilitySpeed = 20
	return static, mobile
}

// TestRunDiscoveryHonoursMobility: a discovery run moves its nodes like a
// data-plane run does, so a mobile run cannot equal the static run of the
// same seed.
func TestRunDiscoveryHonoursMobility(t *testing.T) {
	static, mobile := mobileDiscovery(6)
	s, err := NewEngine().Run(static)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewEngine().Run(mobile)
	if err != nil {
		t.Fatal(err)
	}
	if m == s {
		t.Fatalf("discovery at MobilitySpeed %g equals the static run: %+v", mobile.MobilitySpeed, m)
	}
}

// TestGoldenWarmMobileDiscoveryMatchesCold extends the warm == cold
// contract to mobile discovery runs, on an engine that ran a static
// discovery first.
func TestGoldenWarmMobileDiscoveryMatchesCold(t *testing.T) {
	static, mobile := mobileDiscovery(5)
	coldStatic, err := NewEngine().Run(static)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEngine().Run(mobile)
	if err != nil {
		t.Fatal(err)
	}
	if cold == coldStatic {
		t.Fatal("mobile discovery equals the static run: nothing moved, so warm == cold would prove nothing")
	}
	eng := NewEngine()
	for i, sc := range []Scenario{static, mobile, static, mobile} {
		want := coldStatic
		if sc.MobilitySpeed > 0 {
			want = cold
		}
		got, err := eng.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("warm run %d (speed %g) diverges from cold:\n  warm %+v\n  cold %+v", i, sc.MobilitySpeed, got, want)
		}
	}
}

// TestRunDiscoveryFiresRunHooks: both test hooks fire once per discovery
// run, as they do per data-plane run.
func TestRunDiscoveryFiresRunHooks(t *testing.T) {
	var runs, prepared int
	TestHookRun = func(Scenario) { runs++ }
	TestHookPrepared = func(*des.Sim, []*node.Node, Scenario) { prepared++ }
	defer func() { TestHookRun, TestHookPrepared = nil, nil }()
	sc := probeScenario(2)
	eng := NewEngine()
	for i := 1; i <= 2; i++ {
		if _, err := eng.Run(sc); err != nil {
			t.Fatal(err)
		}
		if runs != i || prepared != i {
			t.Fatalf("after %d discovery runs: TestHookRun fired %d times, TestHookPrepared %d", i, runs, prepared)
		}
	}
}

func TestPickFlowsSessions(t *testing.T) {
	sc := quickScenario()
	sc.SessionTime = 5 * des.Second
	sc.Flows = 4
	tp := new(topo.Topology)
	_, err := place(sc, rng.New(1), tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := pickFlows(sc, tp, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each slot spawns ceil((warmup+measure-start)/session) sessions.
	if len(flows) <= sc.Flows {
		t.Fatalf("session churn produced only %d flows", len(flows))
	}
	for _, f := range flows {
		if f.Stop <= f.Start {
			t.Fatalf("session flow %d has Stop %v <= Start %v", f.ID, f.Stop, f.Start)
		}
		if f.Src == f.Dst {
			t.Fatalf("flow %d has identical endpoints", f.ID)
		}
	}
	// IDs must be unique and dense.
	seen := map[int]bool{}
	for _, f := range flows {
		if seen[f.ID] {
			t.Fatalf("duplicate flow ID %d", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestCentreNode(t *testing.T) {
	sc := quickScenario()
	tp := new(topo.Topology)
	_, err := place(sc, rng.New(1), tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := centreNode(tp)
	// 5×5 grid: the centre is node 12.
	if c != 12 {
		t.Fatalf("centre node %v, want 12", c)
	}
}

func TestMinHopDistRespected(t *testing.T) {
	sc := quickScenario()
	sc.MinHopDist = 3
	tp := new(topo.Topology)
	_, err := place(sc, rng.New(1), tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := pickFlows(sc, tp, rng.New(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if hop := tp.Hops(f.Src, f.Dst); hop < 3 {
			t.Fatalf("flow %v->%v only %d hops apart", f.Src, f.Dst, hop)
		}
	}
}

func TestMobilityScenario(t *testing.T) {
	sc := quickScenario()
	sc.MobilitySpeed = 10
	sc.SessionTime = 5 * des.Second
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent == 0 || r.Delivered == 0 {
		t.Fatalf("mobile run delivered nothing: %+v", r)
	}
	// Motion must cost something relative to the static baseline: more
	// control traffic (re-discoveries / RERRs) for the same workload.
	sc.MobilitySpeed = 0
	static, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.ControlTx <= static.ControlTx/2 {
		t.Fatalf("mobility produced suspiciously little control traffic: %d vs static %d",
			r.ControlTx, static.ControlTx)
	}
}

func TestMobilityDeterministic(t *testing.T) {
	sc := quickScenario()
	sc.MobilitySpeed = 15
	a, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("mobile runs with the same seed diverged")
	}
}

// TestRunJourneyTraceSink is the route-event case of RunJourney: a
// recorder with decisions on captures the routing core's route events,
// and no hooks at all is exactly Run.
func TestRunJourneyTraceSink(t *testing.T) {
	sc := quickScenario()
	rec := journey.NewRecorder(1, true)
	r, err := NewEngine().RunJourney(sc, nil, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 {
		t.Fatal("traced run delivered nothing")
	}
	kinds := map[string]int{}
	for _, ev := range rec.RouteEvents() {
		kinds[ev.Kind]++
	}
	for _, k := range []string{journey.EventRREQOriginate, journey.EventDiscoveryOK, journey.EventRREPSend} {
		if kinds[k] == 0 {
			t.Errorf("no %s route events recorded (got %v)", k, kinds)
		}
	}
	// No hooks must behave exactly like Run.
	a, err := NewEngine().RunJourney(sc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("RunJourney with no hooks differs from Run")
	}
}

func TestEnergyMetrics(t *testing.T) {
	r, err := NewEngine().Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	// Every node at least pays idle power for the 15 s window.
	minIdle := 1.15 * 15
	if r.EnergyMeanJ < minIdle || r.EnergyMeanJ > 3*minIdle {
		t.Fatalf("mean energy %.2f J implausible (idle baseline %.2f)", r.EnergyMeanJ, minIdle)
	}
	if r.EnergyMaxJ < r.EnergyMeanJ {
		t.Fatalf("max energy %.2f below mean %.2f", r.EnergyMaxJ, r.EnergyMeanJ)
	}
}

func TestPropagationModels(t *testing.T) {
	base := quickScenario()
	for _, prop := range []Prop{PropTwoRay, PropLogDistance, PropNakagami} {
		sc := base
		sc.PropModel = prop
		if prop == PropNakagami {
			sc.NakagamiM = 3
		}
		if prop == PropLogDistance {
			// Exponent 3 yields only ~80 m range with the default power
			// budget; 2.4 restores ~240 m so the test grid connects.
			sc.PathLossExp = 2.4
		}
		r, err := NewEngine().Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		if r.Delivered == 0 {
			t.Fatalf("%s delivered nothing", prop)
		}
	}
	sc := base
	sc.PropModel = "quantum"
	if err := sc.Validate(); err == nil {
		t.Fatal("unknown propagation model accepted")
	}
}

func TestNakagamiFadingCostsReliability(t *testing.T) {
	// Rayleigh fading (m=1) must hurt compared to the clean channel:
	// more MAC retries for the same workload.
	base := quickScenario()
	clean, err := NewEngine().Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faded := base
	faded.PropModel = PropNakagami
	faded.NakagamiM = 1
	fr, err := NewEngine().Run(faded)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PDR > clean.PDR+0.01 {
		t.Fatalf("fading improved PDR: %.3f vs %.3f", fr.PDR, clean.PDR)
	}
	if fr.MACRetryDrops+fr.MACQueueDrops == 0 && fr.PDR >= clean.PDR {
		t.Log("note: mild fading fully absorbed by retries (acceptable)")
	}
}

func TestDelayPercentile(t *testing.T) {
	r, err := NewEngine().Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.DelayP95Sec <= 0 {
		t.Fatal("no p95 delay measured")
	}
	if r.DelayP95Sec < r.MeanDelaySec {
		t.Fatalf("p95 delay %.4f below mean %.4f", r.DelayP95Sec, r.MeanDelaySec)
	}
	if r.DelayP95Sec > 1 {
		t.Fatalf("low-load p95 delay %.3f s implausible", r.DelayP95Sec)
	}
}
