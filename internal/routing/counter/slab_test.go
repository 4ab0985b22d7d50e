package counter

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

// chain builds three counter nodes 200 m apart, not started (no
// beacons), and returns the middle one's policy.
func chain() (*des.Sim, []*node.Node, *Policy) {
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	nodes := node.BuildNetwork(simk, medium, geom.ChainPlacement(geom.Point{}, 3, 200),
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(1),
		Spec(routing.DefaultConfig(), DefaultParams()))
	return simk, nodes, nodes[1].Agent.Policy().(*Policy)
}

// packetsInSlots counts the clones p's slab still points at in its
// first n slots.
func packetsInSlots(p *Policy, n uint32) int {
	held := 0
	for i := uint32(0); i < n; i++ {
		if p.slots.At(i).p != nil {
			held++
		}
	}
	return held
}

// TestRADAllocatesNothing: once the slab has grown, assessing a flood —
// the first copy's clone and RAD, a duplicate counted, the RAD resolving
// into a rebroadcast — allocates nothing: the assessment is a slab slot
// and the RAD a typed event carrying its index.
func TestRADAllocatesNothing(t *testing.T) {
	simk, nodes, _ := chain()
	mid := nodes[1].Agent
	// Flood copies from a node out of the chain's reach, as relayed by
	// each end of the chain.
	rreq := nilPool.RREQ(pkt.RREQBody{Origin: 9, Target: 8, HopCount: 1, Cost: 1}, 0, 30)
	id := uint32(0)
	n := testing.AllocsPerRun(50, func() {
		id++
		rreq.RREQ.ID, rreq.RREQ.OriginSeq = id, id
		mid.MacReceive(rreq, 0)
		mid.MacReceive(rreq, 2)
		simk.RunUntil(simk.Now() + 6*des.Second)
	})
	if n != 0 {
		t.Errorf("a counter RAD from first copy to resolution: %v allocs, want 0", n)
	}
	if mid.Ctr.RREQForwarded == 0 {
		t.Fatal("no RAD resolved into a rebroadcast")
	}
}

// TestRecycledSlotHoldsNoPackets: a resolved assessment's slot keeps no
// pointer to its clone (released to the pool, which may hand it out
// again), including when the node crashed while the RAD ran.
func TestRecycledSlotHoldsNoPackets(t *testing.T) {
	simk, nodes, p := chain()
	mid := nodes[1].Agent
	for id := uint32(1); id <= 3; id++ {
		mid.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: id, Origin: 9, Target: 8, OriginSeq: id}, 0, 30), 0)
	}
	if p.HeldPackets(mid) != 3 || packetsInSlots(p, 3) != 3 {
		t.Fatalf("three RADs in progress hold %d clones (%d in slots), want 3", p.HeldPackets(mid), packetsInSlots(p, 3))
	}
	nodes[1].Crash()
	simk.RunUntil(simk.Now() + des.Second)
	if p.HeldPackets(mid) != 0 || p.pending.Len() != 0 {
		t.Fatalf("after every RAD resolved: %d clones held, %d floods pending", p.HeldPackets(mid), p.pending.Len())
	}
	if n := packetsInSlots(p, 3); n != 0 {
		t.Errorf("resolved slots still point at %d clones", n)
	}
	// All three slots are free: a new flood takes the last one freed
	// instead of growing the slab.
	nodes[1].Recover()
	mid.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: 4, Origin: 9, Target: 8, OriginSeq: 4}, 0, 30), 0)
	if i, ok := p.pending.Get(floodKey{1, 9, 4}); !ok || i >= 3 {
		t.Errorf("a new flood after three RADs resolved took slot %d (pending %v), want a recycled one", i, ok)
	}
}

// TestOnePolicyServesTheNetwork: the chain's nodes share one policy,
// which counts each node's assessments apart, and a warm reset hands the
// clones of RADs still in flight back to their node's pool — the kernel
// reset discarded the events that would have resolved them — while the
// network gets a new, empty policy.
func TestOnePolicyServesTheNetwork(t *testing.T) {
	simk, nodes, p := chain()
	for _, n := range nodes {
		if n.Agent.Policy() != routing.RREQPolicy(p) {
			t.Fatalf("node %d runs policy %p, node 1 %p: want one per network", n.ID, n.Agent.Policy(), p)
		}
		n.Agent.Env.Pool.SetAudit(true)
	}
	for id := uint32(1); id <= 2; id++ {
		nodes[1].Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: id, Origin: 9, Target: 8, OriginSeq: id}, 0, 30), 0)
	}
	nodes[2].Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: 1, Origin: 9, Target: 8, OriginSeq: 1}, 0, 30), 1)
	for i, want := range []int{0, 2, 1} {
		if got := p.HeldPackets(nodes[i].Agent); got != want {
			t.Errorf("node %d: policy holds %d clones, want %d", i, got, want)
		}
		if live := nodes[i].Agent.Env.Pool.LiveBorrowed(); live != want {
			t.Errorf("node %d: %d packets borrowed from its pool, want %d", i, live, want)
		}
	}
	simk.Reset()
	spec := Spec(routing.DefaultConfig(), DefaultParams())
	node.ResetNetwork(nodes, geom.ChainPlacement(geom.Point{}, 3, 200), mac.DefaultConfig(), rng.New(1),
		spec.Cfg, spec.Policy())
	for i, n := range nodes {
		if live := n.Agent.Env.Pool.LiveBorrowed(); live != 0 {
			t.Errorf("node %d: %d packets still borrowed after the reset", i, live)
		}
		if n.Agent.HeldPackets() != 0 {
			t.Errorf("node %d: the core reports %d held packets after the reset", i, n.Agent.HeldPackets())
		}
	}
	if p.slots.Live() != 0 || p.pending.Len() != 0 {
		t.Errorf("the old policy keeps %d assessments, %d pending floods", p.slots.Live(), p.pending.Len())
	}
	if q := nodes[0].Agent.Policy(); q == routing.RREQPolicy(p) || q != nodes[2].Agent.Policy() {
		t.Errorf("after the reset the nodes run %p, %p (old %p): want one new policy", q, nodes[2].Agent.Policy(), p)
	}
}

// TestResetKeepsThePolicy: a warm reset that keeps the network's policy
// — what an engine does while its scheme stays — hands every retained
// clone back and leaves the policy as a new one starts: nothing pending
// and the slab's indices free from 0, its storage kept, so the next run
// assesses floods without allocating.
func TestResetKeepsThePolicy(t *testing.T) {
	simk, nodes, p := chain()
	for id := uint32(1); id <= 3; id++ {
		nodes[1].Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: id, Origin: 9, Target: 8, OriginSeq: id}, 0, 30), 0)
	}
	simk.Reset()
	node.ResetNetwork(nodes, geom.ChainPlacement(geom.Point{}, 3, 200), mac.DefaultConfig(), rng.New(1),
		nodes[1].Agent.Cfg, p)
	for i, n := range nodes {
		if n.Agent.Policy() != routing.RREQPolicy(p) {
			t.Fatalf("node %d runs %p after the reset, want the kept %p", i, n.Agent.Policy(), p)
		}
		if live := n.Agent.Env.Pool.LiveBorrowed(); live != 0 || n.Agent.HeldPackets() != 0 {
			t.Errorf("node %d: %d packets borrowed, %d held after the reset", i, live, n.Agent.HeldPackets())
		}
	}
	if p.slots.Len() != 0 || p.pending.Len() != 0 {
		t.Errorf("the kept policy has %d slab indices, %d pending floods: want a fresh policy's 0, 0", p.slots.Len(), p.pending.Len())
	}
	nodes[1].Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: 4, Origin: 9, Target: 8, OriginSeq: 4}, 0, 30), 0)
	if i, ok := p.pending.Get(floodKey{1, 9, 4}); !ok || i != 0 {
		t.Errorf("the first flood after the reset took slot %d (pending %v), want 0", i, ok)
	}
}
