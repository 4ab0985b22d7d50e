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
// beacons), and returns the network's policy: BuildNetwork must ask the
// spec for exactly one, which every node's agent then runs.
func chain(t *testing.T) (*des.Sim, []*node.Node, *Policy) {
	t.Helper()
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	spec := Spec(routing.DefaultConfig(), DefaultParams())
	var made []*Policy
	newPolicy := spec.Policy
	spec.Policy = func() routing.RREQPolicy {
		p := newPolicy().(*Policy)
		made = append(made, p)
		return p
	}
	nodes := node.BuildNetwork(simk, medium, geom.ChainPlacement(geom.Point{}, 3, 200),
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(1), spec)
	if len(made) != 1 {
		t.Fatalf("BuildNetwork asked the spec for %d policies, want one for the network", len(made))
	}
	return simk, nodes, made[0]
}

// floodEach hands every node of the chain the first copy of flood id,
// relayed by a neighbour, so each node's agent assesses it in the policy
// it runs.
func floodEach(nodes []*node.Node, id uint32) {
	for i, n := range nodes {
		from := pkt.NodeID(1)
		if i == 1 {
			from = 0
		}
		n.Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: id, Origin: 9, Target: 8, OriginSeq: id}, 0, 30), from)
	}
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
	simk, nodes, _ := chain(t)
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
	simk, nodes, p := chain(t)
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
	simk, nodes, p := chain(t)
	for _, n := range nodes {
		n.Agent.Env.Pool.SetAudit(true)
	}
	floodEach(nodes, 1)
	nodes[1].Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: 2, Origin: 9, Target: 8, OriginSeq: 2}, 0, 30), 0)
	for i, want := range []int{1, 2, 1} {
		if got := p.HeldPackets(nodes[i].Agent); got != want {
			t.Errorf("node %d: policy holds %d clones, want %d", i, got, want)
		}
		if live := nodes[i].Agent.Env.Pool.LiveBorrowed(); live != want {
			t.Errorf("node %d: %d packets borrowed from its pool, want %d", i, live, want)
		}
	}
	simk.Reset()
	spec := Spec(routing.DefaultConfig(), DefaultParams())
	q := spec.Policy().(*Policy)
	node.ResetNetwork(nodes, geom.ChainPlacement(geom.Point{}, 3, 200), mac.DefaultConfig(), rng.New(1),
		spec.Cfg, q)
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
	floodEach(nodes, 3)
	for i, n := range nodes {
		if got := q.HeldPackets(n.Agent); got != 1 {
			t.Errorf("node %d: after the reset the new policy holds %d clones of its flood, want 1", i, got)
		}
	}
	if p.slots.Live() != 0 {
		t.Errorf("the old policy took %d assessments after the reset, want 0", p.slots.Live())
	}
}

// TestResetKeepsThePolicy: a warm reset that keeps the network's policy
// — what an engine does while its scheme stays — hands every retained
// clone back and leaves the policy as a new one starts: nothing pending
// and the slab's indices free from 0, its storage kept, so the next run
// assesses floods without allocating.
func TestResetKeepsThePolicy(t *testing.T) {
	simk, nodes, p := chain(t)
	for id := uint32(1); id <= 3; id++ {
		nodes[1].Agent.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: id, Origin: 9, Target: 8, OriginSeq: id}, 0, 30), 0)
	}
	simk.Reset()
	node.ResetNetwork(nodes, geom.ChainPlacement(geom.Point{}, 3, 200), mac.DefaultConfig(), rng.New(1),
		nodes[1].Agent.Cfg, p)
	for i, n := range nodes {
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
	floodEach(nodes, 5)
	for i, want := range []int{1, 2, 1} {
		if got := p.HeldPackets(nodes[i].Agent); got != want {
			t.Errorf("node %d: the kept policy holds %d clones after the reset, want %d", i, got, want)
		}
	}
}
