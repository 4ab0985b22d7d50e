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
	if p.HeldPackets() != 3 || packetsInSlots(p, 3) != 3 {
		t.Fatalf("three RADs in progress hold %d clones (%d in slots), want 3", p.HeldPackets(), packetsInSlots(p, 3))
	}
	nodes[1].Crash()
	simk.RunUntil(simk.Now() + des.Second)
	if p.HeldPackets() != 0 || len(p.pending) != 0 {
		t.Fatalf("after every RAD resolved: %d clones held, %d floods pending", p.HeldPackets(), len(p.pending))
	}
	if n := packetsInSlots(p, 3); n != 0 {
		t.Errorf("resolved slots still point at %d clones", n)
	}
	// All three slots are free: a new flood takes the last one freed
	// instead of growing the slab.
	nodes[1].Recover()
	mid.MacReceive(nilPool.RREQ(pkt.RREQBody{ID: 4, Origin: 9, Target: 8, OriginSeq: 4}, 0, 30), 0)
	if i, ok := p.pending[floodKey{9, 4}]; !ok || i >= 3 {
		t.Errorf("a new flood after three RADs resolved took slot %d (pending %v), want a recycled one", i, ok)
	}
}
