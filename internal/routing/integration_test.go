package routing_test

import (
	"slices"
	"testing"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/journey"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/routing/aodv"
	"clnlr/internal/routing/counter"
	"clnlr/internal/routing/gossip"
	"clnlr/internal/traffic"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

// flood and clnlr are the two specs most tests build from.
var (
	flood = aodv.Spec(routing.DefaultConfig())
	clnlr = core.Spec(routing.DefaultConfig(), core.DefaultParams())
)

// schemes returns a spec per scheme under test.
func schemes() map[string]routing.Spec {
	twoHop := core.DefaultParams()
	twoHop.TwoHop = true
	return map[string]routing.Spec{
		"flood":      flood,
		"gossip":     gossip.Spec(routing.DefaultConfig(), gossip.DefaultParams()),
		"counter":    counter.Spec(routing.DefaultConfig(), counter.DefaultParams()),
		"clnlr":      clnlr,
		"clnlr-2hop": core.Spec(routing.DefaultConfig(), twoHop),
	}
}

// buildNet assembles a network over the given positions.
func buildNet(seed uint64, positions []geom.Point, spec routing.Spec) (*des.Sim, []*node.Node) {
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	master := rng.New(seed)
	nodes := node.BuildNetwork(sim, medium, positions,
		radio.DefaultParams(), mac.DefaultConfig(), master, spec)
	node.StartAll(nodes)
	return sim, nodes
}

func TestChainDeliveryAllSchemes(t *testing.T) {
	positions := geom.ChainPlacement(geom.Point{X: 100, Y: 100}, 5, 200)
	for name, spec := range schemes() {
		t.Run(name, func(t *testing.T) {
			sim, nodes := buildNet(11, positions, spec)
			mgr := traffic.NewManager(sim, nodes, 30, 2*des.Second)
			mgr.AddFlow(traffic.Flow{
				ID: 0, Src: 0, Dst: 4, Payload: 512,
				Interval: 250 * des.Millisecond, Start: des.Second,
			}, rng.New(5))
			sim.RunUntil(20 * des.Second)

			fs := mgr.FlowStats(0)
			if fs.Sent == 0 {
				t.Fatal("no packets sent")
			}
			if fs.PDR() < 0.9 {
				t.Fatalf("chain PDR %.2f (%d/%d) below 0.9", fs.PDR(), fs.Delivered, fs.Sent)
			}
			if fs.Delay.Mean() <= 0 {
				t.Fatal("non-positive mean delay")
			}
			// A 4-hop path at 2 Mb/s must take at least 4 frame airtimes
			// (~2.2 ms each) and realistically under a second.
			if fs.Delay.Mean() < 0.008 || fs.Delay.Mean() > 1.0 {
				t.Fatalf("implausible mean delay %.4fs", fs.Delay.Mean())
			}
			if nodes[0].Agent.Ctr.DiscoveriesSucceeded == 0 {
				t.Fatal("source recorded no successful discovery")
			}
		})
	}
}

func TestGridDeliveryAllSchemes(t *testing.T) {
	positions := geom.GridPlacement(geom.Square(1000), 5, 5)
	for name, spec := range schemes() {
		t.Run(name, func(t *testing.T) {
			sim, nodes := buildNet(23, positions, spec)
			mgr := traffic.NewManager(sim, nodes, 30, 2*des.Second)
			src := rng.New(99)
			// Corner-to-corner plus two cross flows.
			flows := []traffic.Flow{
				{ID: 0, Src: 0, Dst: 24, Payload: 512, Interval: 500 * des.Millisecond, Start: des.Second},
				{ID: 1, Src: 4, Dst: 20, Payload: 512, Interval: 500 * des.Millisecond, Start: des.Second},
				{ID: 2, Src: 2, Dst: 22, Payload: 512, Interval: 500 * des.Millisecond, Start: des.Second},
			}
			for _, f := range flows {
				mgr.AddFlow(f, src.Derive(uint64(f.ID)))
			}
			sim.RunUntil(25 * des.Second)

			tot := mgr.Totals()
			if tot.Sent == 0 {
				t.Fatal("no traffic generated")
			}
			if tot.PDR() < 0.75 {
				t.Fatalf("grid PDR %.2f (%d/%d) below 0.75", tot.PDR(), tot.Delivered, tot.Sent)
			}
			_ = nodes
		})
	}
}

func TestRREQOverheadOrdering(t *testing.T) {
	// On the same scenario, flood must generate at least as many RREQ
	// transmissions as the probabilistic schemes.
	positions := geom.GridPlacement(geom.Square(1000), 6, 6)
	overhead := map[string]uint64{}
	for name, spec := range schemes() {
		sim, nodes := buildNet(31, positions, spec)
		mgr := traffic.NewManager(sim, nodes, 30, des.Second)
		src := rng.New(7)
		for i := 0; i < 4; i++ {
			mgr.AddFlow(traffic.Flow{
				ID: i, Src: pkt.NodeID(i), Dst: pkt.NodeID(35 - i),
				Payload: 256, Interval: des.Second, Start: des.Second,
			}, src.Derive(uint64(i)))
		}
		sim.RunUntil(20 * des.Second)
		var rreqTx uint64
		for _, n := range nodes {
			rreqTx += n.Agent.Ctr.RREQOriginated + n.Agent.Ctr.RREQForwarded
		}
		overhead[name] = rreqTx
	}
	for _, probabilistic := range []string{"gossip", "clnlr", "clnlr-2hop"} {
		if overhead[probabilistic] > overhead["flood"] {
			t.Errorf("%s RREQ overhead %d exceeds flood %d",
				probabilistic, overhead[probabilistic], overhead["flood"])
		}
	}
	if overhead["flood"] == 0 {
		t.Fatal("flood generated no RREQs")
	}
}

func TestDiscoveryFailsAcrossPartition(t *testing.T) {
	// Two islands: discovery must fail after the configured retries, and
	// buffered packets must be dropped with DropNoRoute accounting.
	positions := []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 3000, Y: 0}, {X: 3200, Y: 0}}
	sim, nodes := buildNet(5, positions, flood)
	p := nilPool.Data(0, 3, 256, 0, 0, 0, 30)
	sim.ScheduleCall(des.Second, des.Func(func() { nodes[0].Agent.Send(p) }), 0, 0)
	sim.RunUntil(30 * des.Second)

	ctr := &nodes[0].Agent.Ctr
	if ctr.DiscoveriesFailed != 1 {
		t.Fatalf("DiscoveriesFailed = %d, want 1", ctr.DiscoveriesFailed)
	}
	if ctr.DropNoRoute != 1 {
		t.Fatalf("DropNoRoute = %d, want 1", ctr.DropNoRoute)
	}
	// 1 original + RREQRetries re-floods.
	want := uint64(1 + routing.DefaultConfig().RREQRetries)
	if ctr.RREQOriginated != want {
		t.Fatalf("RREQOriginated = %d, want %d", ctr.RREQOriginated, want)
	}
}

func TestRouteReusedWithoutRediscovery(t *testing.T) {
	positions := geom.ChainPlacement(geom.Point{}, 3, 200)
	sim, nodes := buildNet(17, positions, flood)
	send := func(seq int) {
		nodes[0].Agent.Send(nilPool.Data(0, 2, 256, 0, seq, sim.Now(), 30))
	}
	sim.ScheduleCall(des.Second, des.Func(func() { send(0) }), 0, 0)
	// Second packet while the route is warm: no new flood.
	sim.ScheduleCall(2*des.Second, des.Func(func() { send(1) }), 0, 0)
	sim.RunUntil(5 * des.Second)
	if nodes[0].Agent.Ctr.DiscoveriesStarted != 1 {
		t.Fatalf("discoveries %d, want 1 (route should be cached)",
			nodes[0].Agent.Ctr.DiscoveriesStarted)
	}
	if nodes[2].Agent.Ctr.DataDelivered != 2 {
		t.Fatalf("delivered %d, want 2", nodes[2].Agent.Ctr.DataDelivered)
	}
}

func TestFullStackDeterminism(t *testing.T) {
	positions := geom.GridPlacement(geom.Square(1000), 5, 5)
	run := func() (uint64, uint64, float64) {
		sim, nodes := buildNet(123, positions, clnlr)
		mgr := traffic.NewManager(sim, nodes, 30, des.Second)
		src := rng.New(55)
		for i := 0; i < 5; i++ {
			mgr.AddFlow(traffic.Flow{
				ID: i, Src: pkt.NodeID(i), Dst: pkt.NodeID(24 - i),
				Payload: 512, Interval: 200 * des.Millisecond, Start: des.Second,
			}, src.Derive(uint64(i)))
		}
		sim.RunUntil(15 * des.Second)
		tot := mgr.Totals()
		var ctl uint64
		for _, n := range nodes {
			ctl += n.Agent.Ctr.ControlPacketsSent()
		}
		return tot.Delivered, ctl, tot.Delay.Mean()
	}
	d1, c1, m1 := run()
	d2, c2, m2 := run()
	if d1 != d2 || c1 != c2 || m1 != m2 {
		t.Fatalf("same-seed runs diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, c1, m1, d2, c2, m2)
	}
	if d1 == 0 {
		t.Fatal("determinism run delivered nothing")
	}
}

func TestHelloBeaconsPopulateNeighborTables(t *testing.T) {
	positions := geom.GridPlacement(geom.Square(600), 3, 3)
	sim, nodes := buildNet(9, positions, clnlr)
	sim.RunUntil(5 * des.Second)
	// Centre node (index 4) must know all 8 neighbours (grid spacing
	// 200 m, diagonal 283 m > 250 m → only 4 lattice neighbours).
	n := nodes[4].Agent.Neighbors().Count()
	if n != 4 {
		t.Fatalf("centre node sees %d neighbours, want 4", n)
	}
	for _, nd := range nodes {
		if nd.Agent.Ctr.HelloSent == 0 {
			t.Fatalf("node %v sent no HELLOs", nd.ID)
		}
	}
}

func TestTTLPreventsInfiniteForwarding(t *testing.T) {
	positions := geom.ChainPlacement(geom.Point{}, 4, 200)
	sim, nodes := buildNet(13, positions, flood)
	// TTL 2 cannot cross 3 hops.
	p := nilPool.Data(0, 3, 128, 0, 0, 0, 2)
	sim.ScheduleCall(des.Second, des.Func(func() { nodes[0].Agent.Send(p) }), 0, 0)
	sim.RunUntil(10 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 0 {
		t.Fatal("packet crossed more hops than its TTL allows")
	}
	drops := nodes[1].Agent.Ctr.DropTTL + nodes[2].Agent.Ctr.DropTTL
	if drops == 0 {
		t.Fatal("no TTL drop recorded")
	}
}

// TestTracingCapturesRoutingEvents: a journey recorder with decisions on
// receives the routing core's route events — a discovery that succeeds,
// one whose target is out of range, and a link that breaks when the next
// hop crashes — each with the fields its kind carries.
func TestTracingCapturesRoutingEvents(t *testing.T) {
	// record builds a network over positions with every node reporting to
	// one recorder, runs script and returns the recorder.
	record := func(positions []geom.Point, script func(sim *des.Sim, nodes []*node.Node)) *journey.Recorder {
		sim, nodes := buildNet(41, positions, flood)
		rec := journey.NewRecorder(1, true)
		rec.Begin(0, rng.New(1))
		for _, n := range nodes {
			n.Agent.Env.Journey = rec
			n.Mac.SetJourney(rec)
		}
		script(sim, nodes)
		rec.EndRun(sim.Now())
		return rec
	}
	// find returns the route events of kind at node.
	find := func(rec *journey.Recorder, node pkt.NodeID, kind string) []journey.RouteEvent {
		var out []journey.RouteEvent
		for _, ev := range rec.RouteEvents() {
			if ev.Node == node && ev.Kind == kind {
				out = append(out, ev)
			}
		}
		return out
	}
	// send originates one data packet at node 0; a UID makes it journey.
	send := func(sim *des.Sim, nodes []*node.Node, at des.Time, dst pkt.NodeID) {
		sim.ScheduleCall(at, des.Func(func() {
			p := nilPool.Data(0, dst, 128, 0, 0, sim.Now(), 30)
			p.UID = uint64(at)
			nodes[0].Agent.Send(p)
		}), 0, 0)
	}

	t.Run("discovery-ok", func(t *testing.T) {
		rec := record(geom.ChainPlacement(geom.Point{}, 3, 200), func(sim *des.Sim, nodes []*node.Node) {
			send(sim, nodes, des.Second, 2)
			sim.RunUntil(5 * des.Second)
		})
		if got := find(rec, 0, journey.EventRREQOriginate); len(got) != 1 ||
			got[0].Peer != 2 || got[0].Attempt != 1 || got[0].ID == 0 || got[0].TNs != int64(des.Second) {
			t.Fatalf("rreq-originate at the source: %+v", got)
		}
		if got := find(rec, 2, journey.EventRREPSend); len(got) != 1 || got[0].Peer != 0 || got[0].Via != 1 {
			t.Fatalf("rrep-send at the target: %+v", got)
		}
		if got := find(rec, 0, journey.EventDiscoveryOK); len(got) != 1 ||
			got[0].Peer != 2 || got[0].Via != 1 || got[0].Buffered != 1 {
			t.Fatalf("discovery-ok at the source: %+v", got)
		}
		if js := rec.Journeys(); len(js) != 1 || js[0].Outcome != journey.OutcomeDelivered {
			t.Fatalf("the data packet's journey: %+v", js)
		}
	})

	t.Run("discovery-fail", func(t *testing.T) {
		// Node 2 is far out of everyone's range: every flood goes unanswered.
		positions := append(geom.ChainPlacement(geom.Point{}, 2, 200), geom.Point{X: 5000})
		rec := record(positions, func(sim *des.Sim, nodes []*node.Node) {
			send(sim, nodes, des.Second, 2)
			sim.RunUntil(10 * des.Second)
		})
		floods := find(rec, 0, journey.EventRREQOriginate)
		if len(floods) != 1+routing.DefaultConfig().RREQRetries {
			t.Fatalf("%d floods for an unreachable target, want %d", len(floods), 1+routing.DefaultConfig().RREQRetries)
		}
		if got := find(rec, 0, journey.EventDiscoveryFail); len(got) != 1 || got[0].Peer != 2 || got[0].Buffered != 1 {
			t.Fatalf("discovery-fail at the source: %+v", got)
		}
		if got := find(rec, 0, journey.EventDiscoveryOK); len(got) != 0 {
			t.Fatalf("discovery-ok for an unreachable target: %+v", got)
		}
	})

	t.Run("link-fail", func(t *testing.T) {
		rec := record(geom.ChainPlacement(geom.Point{}, 3, 200), func(sim *des.Sim, nodes []*node.Node) {
			send(sim, nodes, des.Second, 2)
			sim.ScheduleCall(2*des.Second, des.Func(func() { nodes[1].Crash() }), 0, 0)
			send(sim, nodes, 3*des.Second, 2)
			sim.RunUntil(5 * des.Second)
		})
		got := find(rec, 0, journey.EventLinkFail)
		if len(got) != 1 || got[0].Peer != 1 || got[0].Routes < 1 || got[0].Frame != "DATA" {
			t.Fatalf("link-fail at the source after its next hop crashed: %+v", got)
		}
	})
}

func TestExpandingRingSearch(t *testing.T) {
	// Chain 0-1-2-3. With ring ladder [1,2], a 1-hop destination is found
	// by the TTL-1 flood (no rebroadcasts at all); a 3-hop destination
	// needs escalation through the ladder to the full-TTL flood.
	positions := geom.ChainPlacement(geom.Point{}, 4, 200)
	cfg := routing.DefaultConfig()
	cfg.ExpandingRing = []int{1, 2}
	ers := aodv.Spec(cfg)

	t.Run("near destination found with TTL-1 flood", func(t *testing.T) {
		sim, nodes := buildNet(3, positions, ers)
		sim.ScheduleCall(des.Second, des.Func(func() {
			nodes[0].Agent.Send(nilPool.Data(0, 1, 128, 0, 0, sim.Now(), 30))
		}), 0, 0)
		sim.RunUntil(10 * des.Second)
		if nodes[1].Agent.Ctr.DataDelivered != 1 {
			t.Fatal("1-hop destination not reached")
		}
		if nodes[0].Agent.Ctr.RREQOriginated != 1 {
			t.Fatalf("needed %d floods for a neighbour", nodes[0].Agent.Ctr.RREQOriginated)
		}
		var forwards uint64
		for _, n := range nodes {
			forwards += n.Agent.Ctr.RREQForwarded
		}
		if forwards != 0 {
			t.Fatalf("TTL-1 ring flood was rebroadcast %d times", forwards)
		}
	})

	t.Run("far destination escalates the ladder", func(t *testing.T) {
		sim, nodes := buildNet(3, positions, ers)
		sim.ScheduleCall(des.Second, des.Func(func() {
			nodes[0].Agent.Send(nilPool.Data(0, 3, 128, 0, 0, sim.Now(), 30))
		}), 0, 0)
		sim.RunUntil(15 * des.Second)
		if nodes[3].Agent.Ctr.DataDelivered != 1 {
			t.Fatal("3-hop destination not reached")
		}
		// TTL 1 fails, TTL 2 fails (reaches node 2 only... node 2's
		// rebroadcast has TTL 1 at node 3? TTL 2: origin->1->2: node 2
		// receives TTL 1 and cannot forward; target 3 unreached), then the
		// full-TTL flood succeeds: 3 originations.
		if got := nodes[0].Agent.Ctr.RREQOriginated; got != 3 {
			t.Fatalf("originations %d, want 3 (two rings + full flood)", got)
		}
	})

	t.Run("unreachable destination exhausts ladder plus retries", func(t *testing.T) {
		sim, nodes := buildNet(3, positions, ers)
		sim.ScheduleCall(des.Second, des.Func(func() {
			nodes[0].Agent.Send(nilPool.Data(0, 99, 128, 0, 0, sim.Now(), 30))
		}), 0, 0)
		_ = nodes
		sim.RunUntil(30 * des.Second)
		want := uint64(2 + 1 + routing.DefaultConfig().RREQRetries)
		if got := nodes[0].Agent.Ctr.RREQOriginated; got != want {
			t.Fatalf("originations %d, want %d", got, want)
		}
		if nodes[0].Agent.Ctr.DiscoveriesFailed != 1 {
			t.Fatal("discovery should fail")
		}
	})
}

func TestLinkFailureTriggersRERRPropagation(t *testing.T) {
	// Chain 0-1-2-3 with an active 0→3 flow. Node 3 then moves out of
	// range: node 2's unicasts to it exhaust their retries, node 2 purges
	// the route and broadcasts a RERR, node 1 propagates it, and node 0
	// invalidates its route and re-attempts discovery (which now fails).
	positions := geom.ChainPlacement(geom.Point{}, 4, 200)
	sim, nodes := buildNet(29, positions, flood)
	seq := 0
	// A 5 pkt/s flow from t=1s, with more ticks than the run has.
	sim.AtTrain(des.Second, 200*des.Millisecond, 1<<20, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, seq, sim.Now(), 30))
		seq++
	}), 0, 0)
	// Yank node 3 out of range at t=5s.
	sim.ScheduleCall(5*des.Second, des.Func(func() {
		nodes[3].Radio.SetPos(geom.Point{X: 10_000})
	}), 0, 0)
	sim.RunUntil(20 * des.Second)

	if nodes[3].Agent.Ctr.DataDelivered == 0 {
		t.Fatal("no packets delivered before the break")
	}
	if nodes[2].Agent.Ctr.RERRSent == 0 {
		t.Fatal("node adjacent to the break sent no RERR")
	}
	if nodes[1].Agent.Ctr.RERRReceived == 0 {
		t.Fatal("upstream node heard no RERR")
	}
	if r := nodes[0].Agent.Table().Lookup(3); r != nil {
		t.Fatalf("source still has a valid route to the vanished node: %+v", r)
	}
	if nodes[0].Agent.Ctr.DiscoveriesFailed == 0 {
		t.Fatal("source never recorded a failed re-discovery")
	}
	// The source's own queued packets get re-buffered, then dropped when
	// re-discovery fails.
	if nodes[0].Agent.Ctr.DropNoRoute == 0 {
		t.Fatal("no DropNoRoute recorded after the partition")
	}
}

func TestCrashedRelayTriggersRERRAndReroute(t *testing.T) {
	// Diamond: 0-1-{2,4}-3, where 2 and 4 are alternative middle relays
	// (1-2-3 on the axis, 1-4-3 offset by 140 m; both legs ≈244 m < the
	// 250 m range). An active 0→3 flow settles on one relay; crashing that
	// relay (power-off semantics, not mobility) must exhaust node 1's
	// retries, trigger a RERR back to the source, and re-discover through
	// the surviving relay.
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0},
		{X: 400, Y: 140},
	}
	sim, nodes := buildNet(43, positions, flood)
	seq := 0
	// A 5 pkt/s flow from t=1s, with more ticks than the run has.
	sim.AtTrain(des.Second, 200*des.Millisecond, 1<<20, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, seq, sim.Now(), 30))
		seq++
	}), 0, 0)

	// Crash whichever relay the flow actually uses; the other must take
	// over. Route lifetime is 5 s, so the pre-crash route is still fresh.
	var crashed, alternate int
	var deliveredBefore uint64
	sim.ScheduleCall(4*des.Second, des.Func(func() {
		crashed, alternate = 2, 4
		if nodes[4].Agent.Ctr.DataForwarded > nodes[2].Agent.Ctr.DataForwarded {
			crashed, alternate = 4, 2
		}
		deliveredBefore = nodes[3].Agent.Ctr.DataDelivered
		nodes[crashed].Crash()
	}), 0, 0)
	sim.RunUntil(20 * des.Second)

	if deliveredBefore == 0 {
		t.Fatal("no packets delivered before the crash")
	}
	if nodes[1].Agent.Ctr.RERRSent == 0 {
		t.Fatal("node upstream of the crashed relay sent no RERR")
	}
	if nodes[0].Agent.Ctr.RERRReceived == 0 {
		t.Fatal("source heard no RERR")
	}
	if got := nodes[0].Agent.Ctr.DiscoveriesStarted; got < 2 {
		t.Fatalf("source started %d discoveries, want ≥2 (initial + re-route)", got)
	}
	if nodes[alternate].Agent.Ctr.DataForwarded == 0 {
		t.Fatal("surviving relay forwarded nothing after the crash")
	}
	if after := nodes[3].Agent.Ctr.DataDelivered; after <= deliveredBefore {
		t.Fatalf("delivery did not resume after the crash: %d then, %d now", deliveredBefore, after)
	}
}

func TestCrashedNodeRecoversAndServesAgain(t *testing.T) {
	// Chain 0-1-2: crash the only relay mid-flow, verify total loss, then
	// recover it and verify the flow heals via a fresh discovery. Sequence
	// numbers persist across the restart (RFC 3561 §6.1) so the recovered
	// node's RREPs stay fresh.
	positions := geom.ChainPlacement(geom.Point{}, 3, 200)
	sim, nodes := buildNet(47, positions, flood)
	seq := 0
	// A 4 pkt/s flow from t=1s, with more ticks than the run has.
	sim.AtTrain(des.Second, 250*des.Millisecond, 1<<20, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 2, 256, 0, seq, sim.Now(), 30))
		seq++
	}), 0, 0)

	var atCrash, atRecover uint64
	sim.ScheduleCall(5*des.Second, des.Func(func() {
		atCrash = nodes[2].Agent.Ctr.DataDelivered
		nodes[1].Crash()
	}), 0, 0)
	sim.ScheduleCall(12*des.Second, des.Func(func() {
		atRecover = nodes[2].Agent.Ctr.DataDelivered
		nodes[1].Recover()
	}), 0, 0)
	sim.RunUntil(25 * des.Second)

	if atCrash == 0 {
		t.Fatal("nothing delivered before the crash")
	}
	if atRecover != atCrash {
		t.Fatalf("packets crossed a crashed relay: %d -> %d", atCrash, atRecover)
	}
	final := nodes[2].Agent.Ctr.DataDelivered
	if final <= atRecover {
		t.Fatalf("flow did not heal after recovery: stuck at %d", final)
	}
	// Power-cycle semantics: the relay's volatile routing table was wiped,
	// so serving the healed flow required it to learn the route afresh.
	if nodes[1].Agent.Ctr.DataForwarded == 0 {
		t.Fatal("recovered relay forwarded nothing")
	}
}

// TestRecoverIsIdempotent: node.Recover documents "idempotent for a node
// that is already up". A second Recover — or one on a node that never
// crashed — must not start a second HELLO train nor draw a beacon phase
// from the node's RNG: every node ends with the same HelloSent and the same
// RNG position as in a run that recovered once.
func TestRecoverIsIdempotent(t *testing.T) {
	run := func(extra bool) (hellos []uint64, rngNext []uint64) {
		sim, nodes := buildNet(53, geom.ChainPlacement(geom.Point{}, 3, 200), schemes()["clnlr"])
		sim.ScheduleCall(2*des.Second, des.Func(func() { nodes[1].Crash() }), 0, 0)
		sim.ScheduleCall(4*des.Second, des.Func(func() {
			nodes[1].Recover()
			if extra {
				nodes[1].Recover()
				nodes[0].Recover()
			}
		}), 0, 0)
		sim.RunUntil(20 * des.Second)
		for _, n := range nodes {
			hellos = append(hellos, n.Agent.Ctr.HelloSent)
			rngNext = append(rngNext, n.Agent.Env.Rng.Uint64())
		}
		return hellos, rngNext
	}
	onceHellos, onceRng := run(false)
	twiceHellos, twiceRng := run(true)
	for i := range onceHellos {
		if onceHellos[i] == 0 {
			t.Fatalf("node %d sent no HELLO; the scheme under test must beacon", i)
		}
		if twiceHellos[i] != onceHellos[i] {
			t.Errorf("node %d sent %d HELLOs with redundant Recovers, %d without", i, twiceHellos[i], onceHellos[i])
		}
		if twiceRng[i] != onceRng[i] {
			t.Errorf("node %d: redundant Recovers moved its RNG", i)
		}
	}
}

func TestIntermediateDropAndRERRWithoutRoute(t *testing.T) {
	// A relay that loses its route mid-stream (expiry) sends a RERR for
	// in-flight data instead of silently dropping. Build the situation by
	// pausing the flow for longer than the route lifetime, then injecting
	// one packet directly at the relay with the destination unreachable.
	positions := geom.ChainPlacement(geom.Point{}, 3, 200)
	sim, nodes := buildNet(31, positions, flood)
	sim.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 2, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	// Well after the route lifetime (5 s), hand node 1 a data packet for
	// node 2 as if forwarded from node 0: its route has expired.
	sim.ScheduleCall(15*des.Second, des.Func(func() {
		nodes[1].Agent.MacReceive(nilPool.Data(0, 2, 256, 0, 1, sim.Now(), 30), 0)
	}), 0, 0)
	sim.RunUntil(20 * des.Second)
	if nodes[1].Agent.Ctr.DropNoRoute == 0 {
		t.Fatal("relay with expired route recorded no DropNoRoute")
	}
	if nodes[1].Agent.Ctr.RERRSent == 0 {
		t.Fatal("relay sent no RERR for the routeless packet")
	}
}

func TestCoreAccessors(t *testing.T) {
	sim, nodes := buildNet(37, geom.ChainPlacement(geom.Point{}, 2, 200), flood)
	_ = sim
	a := nodes[0].Agent
	if a.Table() == nil || a.Table().Len() != 0 {
		t.Fatal("fresh table should be empty")
	}
	if a.Neighbors() == nil {
		t.Fatal("neighbour table accessor nil")
	}
	if load := a.OwnLoad(); load != 0 {
		t.Fatalf("idle own load %v", load)
	}
}

// slabRun runs 8 s of five flows over a 5×5 grid with the centre node
// crashing at 3 s and recovering at 5 s, advancing the clock in 200 µs
// steps — shorter than any frame, so a node handles at most one reception
// per step — and calling between (nodes) after each. It returns everything
// the run left behind: traffic totals, per-node counters and tables, and
// the event count.
func slabRun(spec routing.Spec, between func([]*node.Node)) (traffic.FlowStats, []routing.Counters, [][]routing.Route, uint64, []*node.Node) {
	positions := geom.GridPlacement(geom.Square(1000), 5, 5)
	sim, nodes := buildNet(31, positions, spec)
	mgr := traffic.NewManager(sim, nodes, 30, des.Second)
	src := rng.New(77)
	for i := 0; i < 5; i++ {
		mgr.AddFlow(traffic.Flow{
			ID: i, Src: pkt.NodeID(i), Dst: pkt.NodeID(24 - i),
			Payload: 512, Interval: 100 * des.Millisecond, Start: des.Second,
		}, src.Derive(uint64(i)))
	}
	sim.AtCall(3*des.Second, des.Func(nodes[12].Crash), 0, 0)
	sim.AtCall(5*des.Second, des.Func(nodes[12].Recover), 0, 0)
	for t := des.Time(0); t <= 8*des.Second; t += 200 * des.Microsecond {
		sim.RunUntil(t)
		between(nodes)
	}
	ctrs := make([]routing.Counters, len(nodes))
	tables := make([][]routing.Route, len(nodes))
	for i, n := range nodes {
		ctrs[i] = n.Agent.Ctr
		n.Agent.Table().Each(func(r routing.Route) { tables[i] = append(tables[i], r) })
	}
	return mgr.Totals(), ctrs, tables, sim.Executed(), nodes
}

// TestSlabMovesMidRunChangeNothing: a run in which every per-node slab is
// moved to an exactly full array (the old one poisoned) between any two
// receptions — so that every insert reallocates — must leave exactly what
// the undisturbed run leaves. A *Route or *neighborInfo held across an
// insert anywhere in the core or a policy then points into a dead array:
// a write through it is lost and a read misses whatever the insert's
// caller changed since, either of which moves a counter or a table. The
// undisturbed run also pins what the slabs hold: only the IDs a node met,
// and a duplicate cache sized by the floods it had live at once.
func TestSlabMovesMidRunChangeNothing(t *testing.T) {
	all := schemes()
	for _, name := range []string{"flood", "counter", "clnlr-2hop"} {
		t.Run(name, func(t *testing.T) {
			var peak []int // per node, the most floods live at a step's end
			tot, ctrs, tables, events, nodes := slabRun(all[name], func(nodes []*node.Node) {
				peak = slices.Grow(peak, len(nodes))[:len(nodes)]
				for i, n := range nodes {
					peak[i] = max(peak[i], n.Agent.DupCacheLen())
				}
			})
			mTot, mCtrs, mTables, mEvents, _ := slabRun(all[name], func(nodes []*node.Node) {
				for _, n := range nodes {
					n.Agent.MoveSlabs()
				}
			})
			var rerrs uint64
			for _, c := range ctrs {
				rerrs += c.RERRSent
			}
			if tot.Delivered == 0 || rerrs == 0 {
				t.Fatalf("run too quiet to prove anything: %d delivered, %d RERRs", tot.Delivered, rerrs)
			}
			if tot.Sent != mTot.Sent || tot.Delivered != mTot.Delivered || tot.Delay.Mean() != mTot.Delay.Mean() || events != mEvents {
				t.Errorf("totals moved: %d/%d delivered, %d events; with slab moves %d/%d, %d",
					tot.Delivered, tot.Sent, events, mTot.Delivered, mTot.Sent, mEvents)
			}
			for i := range nodes {
				if ctrs[i] != mCtrs[i] {
					t.Errorf("node %d counters moved:\n got %+v\nwant %+v", i, mCtrs[i], ctrs[i])
				}
				if !slices.Equal(tables[i], mTables[i]) {
					t.Errorf("node %d table moved:\n got %+v\nwant %+v", i, mTables[i], tables[i])
				}
				routes, floods, nbrs := nodes[i].Agent.SlabSizes()
				if routes[0] != nodes[i].Agent.Table().Len() || floods[1] > 2*peak[i]+8 || nbrs[0] > 8 {
					t.Errorf("node %d holds %d routes (Len %d), a ring of %d for at most %d floods live, %d neighbours of at most 8",
						i, routes[0], nodes[i].Agent.Table().Len(), floods[1], peak[i], nbrs[0])
				}
				for _, s := range [][2]int{routes, nbrs} {
					if s[1] > 2*s[0]+8 {
						t.Errorf("node %d: slab of %d entries has capacity %d — sized by something other than the IDs met", i, s[0], s[1])
					}
				}
			}
		})
	}
}
