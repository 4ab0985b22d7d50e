package node

import (
	"testing"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/routing/aodv"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

func build(seed uint64, n int) (*des.Sim, []*Node) {
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	nodes := BuildNetwork(simk, medium,
		geom.ChainPlacement(geom.Point{}, n, 200),
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(seed),
		aodv.Spec(routing.DefaultConfig()))
	return simk, nodes
}

func TestBuildNetworkWiring(t *testing.T) {
	_, nodes := build(1, 4)
	if len(nodes) != 4 {
		t.Fatalf("built %d nodes", len(nodes))
	}
	for i, n := range nodes {
		if n.ID != pkt.NodeID(i) {
			t.Fatalf("node %d has ID %v", i, n.ID)
		}
		if n.Agent == nil || n.Agent.Env.ID != n.ID {
			t.Fatalf("agent wiring broken at %d", i)
		}
		if n.Pos != (geom.Point{X: float64(i) * 200}) {
			t.Fatalf("position mismatch at %d: %v", i, n.Pos)
		}
	}
	// Per-node RNG streams must be distinct.
	a := nodes[0].Agent.Env.Rng.Uint64()
	b := nodes[1].Agent.Env.Rng.Uint64()
	if a == b {
		t.Fatal("adjacent nodes share a random stream")
	}
}

func TestSetDeliver(t *testing.T) {
	simk, nodes := build(2, 2)
	StartAll(nodes)
	var got *pkt.Packet
	gotFrom := pkt.NodeID(-1)
	nodes[1].SetDeliver(func(p *pkt.Packet, from pkt.NodeID) { got, gotFrom = p, from })
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 1, 100, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(5 * des.Second)
	if got == nil {
		t.Fatal("deliver hook never fired")
	}
	if got.Src != 0 || got.Dst != 1 {
		t.Fatalf("delivered packet %+v", got)
	}
	// The hop it came from is node 0's MAC, wired with node 0's identity.
	if gotFrom != 0 {
		t.Fatalf("delivered from %d, want node 0", gotFrom)
	}
}

func TestStartAllLaunchesPeriodicWork(t *testing.T) {
	simk, nodes := build(3, 2)
	StartAll(nodes)
	// The MAC load estimator ticks every 100 ms once started.
	before := simk.Executed()
	simk.RunUntil(des.Second)
	if simk.Executed() == before {
		t.Fatal("StartAll scheduled no periodic work")
	}
}

// helloTap sits between node 1's MAC and its agent and keeps the load
// figure of the first HELLO heard from node 0, with node 0's estimate at
// that moment.
type helloTap struct {
	inner     mac.Upper
	sender    *mac.Mac
	heard     bool
	got, want float64
}

func (h *helloTap) MacReceive(p *pkt.Packet, from pkt.NodeID) {
	if p.Kind == pkt.Hello && from == 0 && !h.heard {
		h.heard, h.got, h.want = true, p.Hello.Load, h.sender.LoadStats().Load
	}
	h.inner.MacReceive(p, from)
}

func (h *helloTap) MacTxDone(p *pkt.Packet, dst pkt.NodeID, ok bool) { h.inner.MacTxDone(p, dst, ok) }

// TestLoadClockPrecedesAgents pins where StartAll schedules the sampling
// clock: before any agent, so that when a node's beacon and a window
// boundary share an instant the window closes first and the beacon carries
// the fresh estimate — the order N per-MAC tickers, each started just
// before its own agent, used to give. The coincidence is arranged: node 0's
// first beacon time x is found on a twin network, then the real one runs
// with LoadSampleInterval = x. Node 1 beacons earlier, so node 0's first
// window has seen a busy channel and its estimate is nonzero only once that
// window has closed.
func TestLoadClockPrecedesAgents(t *testing.T) {
	const seed = 1
	network := func(interval des.Time) (*des.Sim, []*Node) {
		simk := des.NewSim()
		medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
		cfg := mac.DefaultConfig()
		cfg.LoadSampleInterval = interval
		nodes := BuildNetwork(simk, medium, geom.ChainPlacement(geom.Point{}, 2, 200),
			radio.DefaultParams(), cfg, rng.New(seed),
			core.Spec(routing.DefaultConfig(), core.DefaultParams()))
		StartAll(nodes)
		return simk, nodes
	}
	hellosBy := func(at des.Time) (node0, node1 uint64) {
		simk, nodes := network(mac.DefaultConfig().LoadSampleInterval)
		simk.RunUntil(at)
		return nodes[0].Agent.Ctr.HelloSent, nodes[1].Agent.Ctr.HelloSent
	}
	lo, hi := des.Time(0), 2*des.Second
	for lo < hi {
		mid := lo + (hi-lo)/2
		if sent, _ := hellosBy(mid); sent > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	x := lo
	if _, earlier := hellosBy(x - des.Millisecond); x < 10*des.Millisecond || earlier == 0 {
		t.Fatalf("seed %d: node 0 first beacons at %v and node 1 has sent %d by then; pick a seed where node 1 goes first", seed, x, earlier)
	}

	simk, nodes := network(x)
	tap := &helloTap{inner: nodes[1].Agent, sender: nodes[0].Mac}
	nodes[1].Mac.SetUpper(tap)
	simk.RunUntil(x + 50*des.Millisecond)
	if !tap.heard {
		t.Fatalf("node 1 heard no HELLO from node 0 by %v", simk.Now())
	}
	if tap.got == 0 || tap.got != tap.want {
		t.Fatalf("the beacon at the window boundary carries load %v, node 0's closed window says %v: the clock did not run first", tap.got, tap.want)
	}
}

func TestBuildDeterministic(t *testing.T) {
	run := func() uint64 {
		simk, nodes := build(7, 3)
		StartAll(nodes)
		simk.ScheduleCall(des.Second, des.Func(func() {
			nodes[0].Agent.Send(nilPool.Data(0, 2, 256, 0, 0, simk.Now(), 30))
		}), 0, 0)
		simk.RunUntil(10 * des.Second)
		return nodes[2].Agent.Ctr.DataDelivered + nodes[1].Agent.Ctr.RREQForwarded*100
	}
	if run() != run() {
		t.Fatal("identical builds diverged")
	}
}
