package routing

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
)

// TestTableUpdateSeqWraparound pins AODV freshness across 32-bit sequence
// number wraparound (RFC 3561 §6.1 circular comparison): a post-wrap
// sequence number close to zero is fresher than one close to MaxUint32,
// and the pre-wrap number must not displace it back.
func TestTableUpdateSeqWraparound(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	const preWrap = uint32(0xFFFFFFFE)
	tb.Update(route(5, 2, preWrap, 2, 2, des.Second))

	// 3 ≡ preWrap+5 after wrap: fresher despite the worse metric.
	if !tb.Update(route(5, 3, 3, 9, 9, des.Second)) {
		t.Fatal("post-wraparound sequence number rejected as stale")
	}
	if r := tb.Lookup(5); r == nil || r.NextHop != 3 {
		t.Fatalf("route not replaced across wraparound: %+v", r)
	}
	// The pre-wrap number is now ~2^32 behind: stale, even with a better
	// metric.
	if tb.Update(route(5, 4, preWrap, 1, 1, des.Second)) {
		t.Fatal("pre-wraparound sequence number displaced the wrapped route")
	}
	if r := tb.Lookup(5); r == nil || r.NextHop != 3 {
		t.Fatalf("wrapped route lost: %+v", r)
	}
}

// TestTableLookupExpiresBoundary pins the expiry boundary: a route is dead
// at exactly its Expires instant (Expires <= now), and the failed Lookup
// also invalidates the entry in place.
func TestTableLookupExpiresBoundary(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 1, 3, 3, des.Second))
	sim.ScheduleCall(des.Second-1, des.Func(func() {
		if tb.Lookup(5) == nil {
			t.Error("route dead one tick before Expires")
		}
	}), 0, 0)
	sim.ScheduleCall(des.Second, des.Func(func() {
		if tb.Lookup(5) != nil {
			t.Error("route alive at exactly Expires")
		}
		if r := get(tb, 5); r == nil || r.Valid {
			t.Errorf("expired Lookup did not invalidate the entry: %+v", r)
		}
	}), 0, 0)
	sim.Run()
}

// TestDupCacheHorizonBoundary pins the duplicate-suppression boundary: a
// flood recorded at t is a duplicate strictly before t+horizon and forgotten
// at exactly t+horizon (exp <= now), when it is popped.
func TestDupCacheHorizonBoundary(t *testing.T) {
	sim := des.NewSim()
	d := NewDupCache(sim, 2*des.Second)
	if d.Seen(1, 7) {
		t.Fatal("first sighting reported as duplicate")
	}
	sim.ScheduleCall(2*des.Second-1, des.Func(func() {
		if !d.Seen(1, 7) {
			t.Error("flood forgotten one tick before the horizon")
		}
	}), 0, 0)
	// The tick-before lookup above re-arms nothing: Seen only reports.
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		if d.Seen(1, 7) {
			t.Error("flood still remembered at exactly the horizon")
		}
	}), 0, 0)
	sim.Run()
}

// TestDupCacheLenCountsLiveEntries pins Len() to the lookup rule at the
// expiry boundary, on a cache built mid-run: an entry whose exp is now+1 is
// live and counted, one whose exp is exactly now is dead and not — with no
// sweep in between to make it so.
func TestDupCacheLenCountsLiveEntries(t *testing.T) {
	sim := des.NewSim()
	const horizon = 2 * des.Second
	var d *DupCache
	sim.ScheduleCall(10*des.Second, des.Func(func() {
		d = NewDupCache(sim, horizon)
		d.Seen(1, 42) // exp = 12 s
	}), 0, 0)
	sim.ScheduleCall(12*des.Second-1, des.Func(func() {
		if d.Len() != 1 {
			t.Errorf("len=%d one tick before expiry (exp == now+1), want 1", d.Len())
		}
		d.Seen(2, 0)
		if d.Len() != 2 {
			t.Errorf("len=%d after a second origin's flood, want 2", d.Len())
		}
	}), 0, 0)
	sim.ScheduleCall(12*des.Second, des.Func(func() {
		if d.Len() != 1 {
			t.Errorf("len=%d at exactly the horizon (exp == now), want origin 2's entry only", d.Len())
		}
		if d.Seen(1, 42) {
			t.Error("expired flood still reported as duplicate")
		}
		if d.Len() != 2 {
			t.Errorf("len=%d after re-recording the expired flood, want 2", d.Len())
		}
	}), 0, 0)
	sim.Run()
}

// TestNeighborTableRemoveClearsSlot pins the map-delete semantics of the
// dense NeighborTable: after Remove, a re-inserted neighbour must not
// expose the previous incarnation's piggybacked two-hop table (an Update
// with a nil payload keeps the stored slice — which must be empty).
func TestNeighborTableRemoveClearsSlot(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, des.Second)
	nt.Update(3, 0.5, []pkt.NeighborLoad{{ID: 7, Load: 0.9}})
	nt.Remove(3)
	if nt.Count() != 0 {
		t.Fatalf("count after remove = %d", nt.Count())
	}
	nt.Update(3, 0.1, nil)
	if got := nt.NeighborhoodLoad(0, 0.1, true); got != 0.1 {
		t.Errorf("stale two-hop table survived Remove: NL = %v, want 0.1", got)
	}
}

// nopPolicy satisfies RREQPolicy for white-box Core tests that never
// originate or forward floods.
type nopPolicy struct{ HoldsNothing }

func (nopPolicy) OnRREQ(*Core, *pkt.Packet, pkt.NodeID, bool) {}
func (nopPolicy) CostIncrement(*Core) float64                 { return 1 }

// bareCore builds a Core with no MAC or pool attached — enough to drive
// receive paths that terminate before any transmission.
func bareCore(sim *des.Sim, id pkt.NodeID) *Core {
	cfg := DefaultConfig()
	c := &Core{
		table: NewTable(sim),
		dup:   NewDupCache(sim, cfg.DupHorizon),
		nbrs:  NewNeighborTable(sim, 0),
	}
	c.Env = Env{Sim: sim, ID: id}
	c.Cfg = cfg
	c.policy = nopPolicy{}
	return c
}

// TestRREPForOwnTargetDropped pins the self-route guard: a route reply
// that loops back into its own target (possible when an upstream reverse
// route is displaced by a better flood copy that arrived through the
// target) must be discarded, never installed as a route to self. Found by
// the runtime auditor's routing/next-hop invariant under saturation.
func TestRREPForOwnTargetDropped(t *testing.T) {
	sim := des.NewSim()
	c := bareCore(sim, 7)
	p := &pkt.Packet{Kind: pkt.RREP, TTL: 5, RREP: &pkt.RREPBody{
		Origin: 3, Target: 7, TargetSeq: 4, HopCount: 2, Cost: 2,
		Lifetime: des.Second,
	}}
	c.handleRREP(p, 5)
	if r := get(c.table, 7); r != nil {
		t.Fatalf("RREP for own target installed a route to self: %+v", r)
	}
	if c.Ctr.RREPForwarded != 0 {
		t.Fatal("RREP for own target was forwarded")
	}

	// Control: the same reply naming another node as target installs the
	// forward route as usual.
	q := &pkt.Packet{Kind: pkt.RREP, TTL: 5, RREP: &pkt.RREPBody{
		Origin: 3, Target: 9, TargetSeq: 4, HopCount: 2, Cost: 2,
		Lifetime: des.Second,
	}}
	c.handleRREP(q, 5)
	r := c.table.Lookup(9)
	if r == nil || r.NextHop != 5 || r.HopCount != 3 {
		t.Fatalf("ordinary RREP not installed: %+v", r)
	}
}

// TestUntracedHotPathAllocatesNothing: with no journey recorder,
// delivering a data packet and forwarding an RREQ — the two per-packet
// routing paths — allocate nothing once pools are warm. The packets carry
// values too large for the runtime's small-integer boxing cache, so an
// observation hook that formats (or merely boxes) its arguments before
// checking for its recorder shows up.
func TestUntracedHotPathAllocatesNothing(t *testing.T) {
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	m := mac.New(mac.DefaultConfig(), sim, medium.Attach(geom.Point{}, radio.DefaultParams()), 0, rng.New(1))
	pool := pkt.NewPool()
	m.SetPool(pool)
	c := New(Env{Sim: sim, Mac: m, ID: 0, Rng: rng.New(2), Pool: pool}, DefaultConfig(), nopPolicy{})

	sim.RunUntil(des.Second) // delay = now − CreatedAt is then a boxed des.Time
	if n := testing.AllocsPerRun(100, func() {
		c.handleData(pool.Data(700, 0, 512, 1000, 100000, 0, 30), 700)
	}); n != 0 {
		t.Errorf("handleData (deliver) with no journey recorder: %v allocs/op, want 0", n)
	}

	rreq := pool.RREQ(pkt.RREQBody{ID: 70000, Origin: 700, OriginSeq: 9, Target: 800, HopCount: 300, Cost: 2.5}, sim.Now(), 30)
	if n := testing.AllocsPerRun(100, func() {
		c.ForwardRREQ(rreq, 0)
		sim.Run() // jittered send, broadcast, MacTxDone: the clone is back in the pool
	}); n != 0 {
		t.Errorf("ForwardRREQ with no journey recorder: %v allocs/op, want 0", n)
	}
	if c.Ctr.DataDelivered == 0 || c.Ctr.RREQForwarded == 0 || m.Ctr.TxBroadcast == 0 {
		t.Fatalf("paths not exercised: delivered %d, forwarded %d, broadcast %d",
			c.Ctr.DataDelivered, c.Ctr.RREQForwarded, m.Ctr.TxBroadcast)
	}
}
