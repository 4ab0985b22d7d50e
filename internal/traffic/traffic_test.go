package traffic

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/routing/aodv"
)

// pair builds a two-node network 200 m apart running plain AODV.
func pair(t *testing.T) (*des.Sim, []*node.Node) {
	t.Helper()
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	nodes := node.BuildNetwork(simk, medium,
		[]geom.Point{{X: 0}, {X: 200}},
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(3),
		aodv.Spec(routing.DefaultConfig()))
	node.StartAll(nodes)
	return simk, nodes
}

func TestCBRRateAndDelivery(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 0)
	mgr.AddFlow(Flow{
		ID: 0, Src: 0, Dst: 1, Payload: 256,
		Interval: 100 * des.Millisecond, Start: 0,
	}, rng.New(7))
	simk.RunUntil(10*des.Second + 50*des.Millisecond)
	fs := mgr.FlowStats(0)
	// Start phase is randomised within one interval; ~100 packets emitted.
	if fs.Sent < 95 || fs.Sent > 101 {
		t.Fatalf("CBR sent %d packets in 10 s at 10 pkt/s", fs.Sent)
	}
	if fs.PDR() < 0.99 {
		t.Fatalf("single-hop PDR %.3f", fs.PDR())
	}
	if fs.Delay.Mean() <= 0 || fs.Delay.Mean() > 0.1 {
		t.Fatalf("delay %v", fs.Delay.Mean())
	}
	if fs.Bytes == 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 0)
	mgr.AddFlow(Flow{
		ID: 0, Src: 0, Dst: 1, Payload: 64,
		Interval: 50 * des.Millisecond, Poisson: true, Start: 0,
	}, rng.New(11))
	simk.RunUntil(60 * des.Second)
	fs := mgr.FlowStats(0)
	want := 60.0 / 0.05
	if math.Abs(float64(fs.Sent)-want) > 0.15*want {
		t.Fatalf("Poisson sent %d packets, want about %.0f", fs.Sent, want)
	}
}

func TestWarmupFiltering(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 5*des.Second)
	mgr.AddFlow(Flow{
		ID: 0, Src: 0, Dst: 1, Payload: 64,
		Interval: 100 * des.Millisecond, Start: 0,
	}, rng.New(1))
	simk.RunUntil(10 * des.Second)
	fs := mgr.FlowStats(0)
	// Only the ~50 packets created after t=5s count.
	if fs.Sent < 45 || fs.Sent > 55 {
		t.Fatalf("warm-up filtering: sent %d, want about 50", fs.Sent)
	}
	if fs.Delivered > fs.Sent {
		t.Fatalf("delivered %d > sent %d (pre-warm-up packets leaked in)", fs.Delivered, fs.Sent)
	}
}

func TestFlowStopHonored(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 0)
	mgr.AddFlow(Flow{
		ID: 0, Src: 0, Dst: 1, Payload: 64,
		Interval: 100 * des.Millisecond, Start: 0, Stop: 2 * des.Second,
	}, rng.New(1))
	simk.RunUntil(10 * des.Second)
	fs := mgr.FlowStats(0)
	if fs.Sent > 21 {
		t.Fatalf("flow kept sending after Stop: %d packets", fs.Sent)
	}
	if fs.Sent < 15 {
		t.Fatalf("flow sent only %d packets before Stop", fs.Sent)
	}
}

func TestAddFlowValidation(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 0)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("same endpoints", func() {
		mgr.AddFlow(Flow{ID: 0, Src: 1, Dst: 1, Interval: des.Second}, rng.New(1))
	})
	expectPanic("zero interval", func() {
		mgr.AddFlow(Flow{ID: 0, Src: 0, Dst: 1}, rng.New(1))
	})
	mgr.AddFlow(Flow{ID: 0, Src: 0, Dst: 1, Payload: 1, Interval: des.Second}, rng.New(1))
	expectPanic("duplicate ID", func() {
		mgr.AddFlow(Flow{ID: 0, Src: 0, Dst: 1, Payload: 1, Interval: des.Second}, rng.New(1))
	})
}

func TestAddProbeSinglePacket(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 0)
	mgr.AddProbe(0, 0, 1, 128, des.Second)
	simk.RunUntil(5 * des.Second)
	fs := mgr.FlowStats(0)
	if fs.Sent != 1 || fs.Delivered != 1 {
		t.Fatalf("probe sent=%d delivered=%d, want 1/1", fs.Sent, fs.Delivered)
	}
}

func TestTotalsAggregation(t *testing.T) {
	simk, nodes := pair(t)
	mgr := NewManager(simk, nodes, 30, 0)
	mgr.AddFlow(Flow{ID: 0, Src: 0, Dst: 1, Payload: 64,
		Interval: 200 * des.Millisecond, Start: 0}, rng.New(1))
	mgr.AddFlow(Flow{ID: 1, Src: 1, Dst: 0, Payload: 64,
		Interval: 200 * des.Millisecond, Start: 0}, rng.New(2))
	simk.RunUntil(10 * des.Second)
	tot := mgr.Totals()
	if tot.Sent != mgr.FlowStats(0).Sent+mgr.FlowStats(1).Sent {
		t.Fatal("Totals.Sent mismatch")
	}
	if tot.Delivered != mgr.FlowStats(0).Delivered+mgr.FlowStats(1).Delivered {
		t.Fatal("Totals.Delivered mismatch")
	}
	// One delay sample per delivery: the merged mean weighs each flow's
	// mean by its deliveries.
	f0, f1 := mgr.FlowStats(0), mgr.FlowStats(1)
	want := (f0.Delay.Mean()*float64(f0.Delivered) + f1.Delay.Mean()*float64(f1.Delivered)) / float64(tot.Delivered)
	if math.Abs(tot.Delay.Mean()-want) > 1e-9*want {
		t.Fatalf("Totals.Delay mean %v, want the delivery-weighted %v", tot.Delay.Mean(), want)
	}
	if len(mgr.emitters) != 2 {
		t.Fatalf("%d flows installed, want 2", len(mgr.emitters))
	}
}

func TestFlowString(t *testing.T) {
	f := Flow{ID: 3, Src: 1, Dst: 2, Payload: 512, Interval: des.Second}
	if f.String() == "" {
		t.Fatal("empty CBR string")
	}
	f.Poisson = true
	if f.String() == "" {
		t.Fatal("empty poisson string")
	}
}

func TestPDRZeroSent(t *testing.T) {
	var fs FlowStats
	if fs.PDR() != 0 {
		t.Fatal("PDR of empty stats should be 0")
	}
}

func TestJainFairness(t *testing.T) {
	var m Manager
	// Hand-build stats: equal flows → 1; skewed flows → below 1.
	m.stats = []FlowStats{
		{Sent: 10, Delivered: 10},
		{Sent: 10, Delivered: 10},
	}
	m.added = []bool{true, true}
	if f := m.JainFairness(); f != 1 {
		t.Fatalf("equal flows fairness %v", f)
	}
	m.stats = []FlowStats{
		{Sent: 10, Delivered: 10},
		{Sent: 10, Delivered: 0},
		{Sent: 10, Delivered: 10}, // gap: an unused flow ID, whatever it holds
	}
	m.added = []bool{true, true, false}
	f := m.JainFairness()
	if f <= 0.49 || f >= 0.51 {
		t.Fatalf("one-dead-flow fairness %v, want 0.5", f)
	}
	m.stats, m.added = nil, nil
	if f := m.JainFairness(); f != 1 {
		t.Fatalf("no flows fairness %v", f)
	}
}

// TestResetReusesManager: a manager Reset over a fresh network measures
// exactly what a new manager does, and once it has grown, a Reset and the
// same flows and probes allocate nothing.
func TestResetReusesManager(t *testing.T) {
	workload := func(mgr *Manager, simk *des.Sim) {
		mgr.AddFlow(Flow{ID: 0, Src: 0, Dst: 1, Payload: 256, Interval: 100 * des.Millisecond}, rng.New(7))
		mgr.AddFlow(Flow{ID: 1, Src: 1, Dst: 0, Payload: 64, Interval: 50 * des.Millisecond, Poisson: true}, rng.New(8))
		mgr.AddProbe(3, 0, 1, 128, 2*des.Second)
		simk.RunUntil(5 * des.Second)
	}
	type summary struct {
		tot      FlowStats
		flows    [4]FlowStats
		p50, p99 float64
		jain     float64
	}
	summarise := func(mgr *Manager) summary {
		s := summary{tot: mgr.Totals(), p50: mgr.DelayQuantile(0.5), p99: mgr.DelayQuantile(0.99), jain: mgr.JainFairness()}
		for id := range s.flows {
			s.flows[id] = *mgr.FlowStats(id)
		}
		return s
	}

	simk, nodes := pair(t)
	fresh := NewManager(simk, nodes, 30, des.Second)
	workload(fresh, simk)
	want := summarise(fresh)
	if want.tot.Delivered == 0 || want.flows[3].Sent != 1 {
		t.Fatalf("workload measured nothing: %+v", want)
	}

	simk, nodes = pair(t)
	reused := NewManager(simk, nodes, 7, 0)
	workload(reused, simk)
	simk, nodes = pair(t)
	reused.Reset(simk, nodes, 30, des.Second)
	workload(reused, simk)
	if got := summarise(reused); got != want {
		t.Errorf("reset manager measured\n%+v\nwant\n%+v", got, want)
	}
	if len(reused.emitters) != 3 {
		t.Errorf("reset manager has %d emitters, want 3 (two flows and a probe)", len(reused.emitters))
	}

	allocs := testing.AllocsPerRun(10, func() {
		simk.Reset()
		reused.Reset(simk, nodes, 30, des.Second)
		reused.AddFlow(Flow{ID: 0, Src: 0, Dst: 1, Payload: 256, Interval: 100 * des.Millisecond}, rng.New(7))
		reused.AddProbe(3, 0, 1, 128, 2*des.Second)
	})
	if allocs != 0 {
		t.Errorf("Reset and re-registering allocate %v times, want 0", allocs)
	}
}
