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

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

// warmPair builds cores a (ID 0) and b (ID 1) 200 m apart on one medium,
// each with its own MAC, packet pool and streams, running cfg with a
// policy that never forwards. Nothing is started: beacons and floods
// happen only when a test calls for them.
func warmPair(cfg Config) (*des.Sim, *Core, *Core) {
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	var cores [2]*Core
	for i := range cores {
		id := pkt.NodeID(i)
		r := medium.Attach(geom.Point{X: 200 * float64(i)}, radio.DefaultParams())
		m := mac.New(mac.DefaultConfig(), sim, r, id, rng.New(uint64(10+i)))
		pool := pkt.NewPool()
		m.SetPool(pool)
		cores[i] = New(Env{Sim: sim, Mac: m, ID: id, Rng: rng.New(uint64(20 + i)), Pool: pool}, cfg, nopPolicy{})
		cores[i].Preallocate(16)
	}
	return sim, cores[0], cores[1]
}

// allocsPerStep runs step and then 6 s of simulated time — past every
// discovery timeout, reply window and duplicate-cache horizon, so each
// step starts from a quiet network — and returns the allocations per
// step once AllocsPerRun's first call has warmed pools and scratch.
func allocsPerStep(sim *des.Sim, step func()) float64 {
	return testing.AllocsPerRun(50, func() {
		step()
		sim.RunUntil(sim.Now() + 6*des.Second)
	})
}

// installVia gives c valid routes to dsts 5, 6 and 7 through next hop
// via, at sequence number seq.
func installVia(c *Core, via pkt.NodeID, seq uint32) {
	for _, dst := range [...]pkt.NodeID{5, 6, 7} {
		c.table.Update(Route{Dst: dst, NextHop: via, HopCount: 2, Cost: 2, Seq: seq, SeqValid: true,
			Expires: c.Env.Sim.Now() + 10*des.Second, Valid: true})
	}
}

// TestRouteMaintenanceAllocatesNothing: on a warm core, every route
// maintenance path — a RERR heard and re-broadcast, a link failure
// reported by the MAC, the RERR for data with no route, a discovery that
// succeeds and one that exhausts its floods, a two-hop HELLO and a
// destination's reply window — reuses per-node storage: the RERR list
// scratch, recycled discovery records, the two-hop load buffer, a map of
// reply windows by value, pooled packets and typed events.
func TestRouteMaintenanceAllocatesNothing(t *testing.T) {
	t.Run("rerr-rebroadcast", func(t *testing.T) {
		sim, a, _ := warmPair(DefaultConfig())
		// Listed out of destination order: the re-broadcast sorts it.
		rerr := nilPool.RERR(1, []pkt.UnreachableDest{{Node: 7}, {Node: 5}, {Node: 6}}, 0)
		seq := uint32(0)
		n := allocsPerStep(sim, func() {
			seq += 2
			installVia(a, 1, seq)
			for i := range rerr.RERR.Unreachable {
				rerr.RERR.Unreachable[i].Seq = seq + 1
			}
			a.MacReceive(rerr, 1)
		})
		if n != 0 {
			t.Errorf("RERR receive and re-broadcast: %v allocs, want 0", n)
		}
		if a.Ctr.RERRReceived == 0 || a.Ctr.RERRSent != a.Ctr.RERRReceived {
			t.Fatalf("path not exercised: %d RERRs heard, %d sent", a.Ctr.RERRReceived, a.Ctr.RERRSent)
		}
	})

	t.Run("link-failure", func(t *testing.T) {
		sim, a, _ := warmPair(DefaultConfig())
		seq := uint32(0)
		n := allocsPerStep(sim, func() {
			seq += 2
			installVia(a, 1, seq)
			a.nbrs.Update(1, 0.2, nil)
			a.MacTxDone(a.Env.Pool.Data(9, 5, 512, 0, 0, sim.Now(), 30), 1, false)
		})
		if n != 0 {
			t.Errorf("link-failure MacTxDone: %v allocs, want 0", n)
		}
		if a.Ctr.DropLinkFail == 0 || a.Ctr.RERRSent != a.Ctr.DropLinkFail {
			t.Fatalf("path not exercised: %d link failures, %d RERRs", a.Ctr.DropLinkFail, a.Ctr.RERRSent)
		}
	})

	t.Run("no-route-rerr", func(t *testing.T) {
		sim, a, _ := warmPair(DefaultConfig())
		n := allocsPerStep(sim, func() {
			a.MacReceive(a.Env.Pool.Data(9, 8, 512, 0, 0, sim.Now(), 30), 1)
		})
		if n != 0 {
			t.Errorf("no-route RERR: %v allocs, want 0", n)
		}
		if a.Ctr.DropNoRoute == 0 || a.Ctr.RERRSent != a.Ctr.DropNoRoute {
			t.Fatalf("path not exercised: %d no-route drops, %d RERRs", a.Ctr.DropNoRoute, a.Ctr.RERRSent)
		}
	})

	t.Run("discovery-route-ready", func(t *testing.T) {
		sim, a, b := warmPair(DefaultConfig())
		n := allocsPerStep(sim, func() {
			a.Send(a.Env.Pool.Data(0, 1, 512, 0, 0, sim.Now(), 30))
		})
		if n != 0 {
			t.Errorf("discovery start → routeReady: %v allocs, want 0", n)
		}
		if a.Ctr.DiscoveriesSucceeded == 0 || a.Ctr.DiscoveriesSucceeded != a.Ctr.DiscoveriesStarted ||
			b.Ctr.DataDelivered != a.Ctr.DataOriginated {
			t.Fatalf("path not exercised: %d of %d discoveries succeeded, %d of %d packets delivered",
				a.Ctr.DiscoveriesSucceeded, a.Ctr.DiscoveriesStarted, b.Ctr.DataDelivered, a.Ctr.DataOriginated)
		}
	})

	t.Run("discovery-timeout", func(t *testing.T) {
		sim, a, _ := warmPair(DefaultConfig())
		n := allocsPerStep(sim, func() {
			a.Send(a.Env.Pool.Data(0, 9, 512, 0, 0, sim.Now(), 30))
		})
		if n != 0 {
			t.Errorf("discovery start → final timeout: %v allocs, want 0", n)
		}
		if a.Ctr.DiscoveriesFailed == 0 || a.Ctr.DiscoveriesFailed != a.Ctr.DiscoveriesStarted {
			t.Fatalf("path not exercised: %d of %d discoveries failed", a.Ctr.DiscoveriesFailed, a.Ctr.DiscoveriesStarted)
		}
	})

	t.Run("two-hop-hello", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.TwoHopHello = true
		sim, a, b := warmPair(cfg)
		n := allocsPerStep(sim, func() {
			for id := pkt.NodeID(2); id < 7; id++ {
				a.nbrs.Update(id, 0.1*float64(id), nil)
			}
			a.sendHello()
		})
		if n != 0 {
			t.Errorf("two-hop HELLO send: %v allocs, want 0", n)
		}
		if b.Ctr.HelloHeard == 0 || len(b.nbrs.info) != 1 || len(b.nbrs.hops[0]) != 5 {
			t.Fatalf("path not exercised: %d HELLOs heard", b.Ctr.HelloHeard)
		}
	})

	t.Run("reply-window", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ReplyWindow = 20 * des.Millisecond
		sim, a, b := warmPair(cfg)
		// Two copies of each flood from origin 9: the costlier one opens
		// the window, the cheaper one (through b) replaces its best.
		far := nilPool.RREQ(pkt.RREQBody{Origin: 9, Target: 0, HopCount: 3, Cost: 3}, 0, 30)
		near := nilPool.RREQ(pkt.RREQBody{Origin: 9, Target: 0, HopCount: 1, Cost: 1}, 0, 30)
		id := uint32(0)
		n := allocsPerStep(sim, func() {
			id++
			far.RREQ.ID, far.RREQ.OriginSeq = id, id
			near.RREQ.ID, near.RREQ.OriginSeq = id, id
			a.MacReceive(far, 2)
			a.MacReceive(near, 1)
		})
		if n != 0 {
			t.Errorf("reply window open/close: %v allocs, want 0", n)
		}
		if a.Ctr.RREPSent == 0 || b.Ctr.RREPReceived != a.Ctr.RREPSent {
			t.Fatalf("path not exercised: %d RREPs sent, %d heard by the cheaper copy's sender", a.Ctr.RREPSent, b.Ctr.RREPReceived)
		}
	})
}

// packetsInFreeDiscoveries counts the packet pointers left anywhere in
// the storage of c's recycled discovery records. It pops every record and
// puts them back in the same order, so the free list is left as found.
func packetsInFreeDiscoveries(c *Core) int {
	var recs []*discovery
	for d, ok := c.discFree.Get(); ok; d, ok = c.discFree.Get() {
		recs = append(recs, d)
	}
	n := 0
	for i := len(recs) - 1; i >= 0; i-- {
		for _, p := range recs[i].buffer[:cap(recs[i].buffer)] {
			if p != nil {
				n++
			}
		}
		c.discFree.Put(recs[i])
	}
	return n
}

// TestRecycledDiscoveryHoldsNoPackets: a discovery record goes back to
// the free list after routeReady flushed its buffer, after its final
// timeout dropped it and after a crash discarded it, and in each case
// keeps no pointer to a packet of its previous life — those packets are
// in the MAC or back in the pool, and a stale
// reference would pin them or, pooled, alias a later packet.
func TestRecycledDiscoveryHoldsNoPackets(t *testing.T) {
	sim, a, _ := warmPair(DefaultConfig())
	buffer := func(dst pkt.NodeID) {
		for seq := 0; seq < 3; seq++ {
			a.Send(a.Env.Pool.Data(0, dst, 512, 0, seq, sim.Now(), 30))
		}
	}
	check := func(when string) {
		t.Helper()
		if a.discFree.Len() == 0 {
			t.Fatalf("%s: no discovery record was recycled", when)
		}
		if n := packetsInFreeDiscoveries(a); n != 0 {
			t.Errorf("%s: recycled discovery records still hold %d packets", when, n)
		}
	}

	buffer(1)
	sim.RunUntil(sim.Now() + 6*des.Second)
	if a.Ctr.DiscoveriesSucceeded != 1 {
		t.Fatalf("discovery of b did not succeed: %+v", a.Ctr)
	}
	check("after routeReady")

	buffer(9)
	sim.RunUntil(sim.Now() + 6*des.Second)
	if a.Ctr.DiscoveriesFailed != 1 || a.Ctr.DropNoRoute != 3 {
		t.Fatalf("discovery of a missing node did not fail: %+v", a.Ctr)
	}
	check("after the final timeout")

	buffer(9)
	buffer(8)
	if len(a.pending) != 2 || a.discFree.Len() != 0 {
		t.Fatalf("%d discoveries pending, %d records free: want 2 and 0 (both records reused)", len(a.pending), a.discFree.Len())
	}
	a.Crash()
	check("after Crash")
	if a.discFree.Len() != 2 {
		t.Errorf("Crash recycled %d discovery records, want 2", a.discFree.Len())
	}
}

// TestHelloBeaconSchedule: after a first beacon drawn across the whole
// interval, a node beacons every HelloInterval plus up to 100 ms of
// jitter; a crash stops the beacon and Recover restarts it.
func TestHelloBeaconSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HelloEnabled = true
	sim, a, _ := warmPair(cfg)
	const jitter = 100 * des.Millisecond
	// shadow draws what a's generator will: the first beacon's offset and
	// then each beacon's jitter. Nothing else draws from it in a quiet
	// pair, so it predicts every beacon's instant, and HelloSent moving at
	// exactly that instant confirms the prediction.
	shadow := *a.Env.Rng
	a.Start()
	at := des.Time(shadow.Intn(int(cfg.HelloInterval))) + des.Time(shadow.Intn(int(jitter)))
	if at >= cfg.HelloInterval+jitter {
		t.Fatalf("first beacon at %v, past one interval plus jitter", at)
	}
	for i := 0; i < 10; i++ {
		sim.RunUntil(at - 1)
		if a.Ctr.HelloSent != uint64(i) {
			t.Fatalf("beacon %d sent before %v", i, at)
		}
		sim.RunUntil(at)
		if a.Ctr.HelloSent != uint64(i+1) {
			t.Fatalf("beacon %d not sent at %v", i, at)
		}
		next := at + cfg.HelloInterval + des.Time(shadow.Intn(int(jitter)))
		if gap := next - at; gap < cfg.HelloInterval || gap >= cfg.HelloInterval+jitter {
			t.Fatalf("beacon %d: gap %v outside [%v, %v)", i, gap, cfg.HelloInterval, cfg.HelloInterval+jitter)
		}
		at = next
	}
	if a.Ctr.HelloSent != 10 {
		t.Fatalf("%d beacons sent, want 10", a.Ctr.HelloSent)
	}
	a.Crash()
	sim.RunUntil(sim.Now() + 5*des.Second)
	if a.Ctr.HelloSent != 10 {
		t.Fatalf("a crashed node beaconed: %d sent", a.Ctr.HelloSent)
	}
	a.Recover()
	sim.RunUntil(sim.Now() + cfg.HelloInterval + jitter)
	if a.Ctr.HelloSent != 11 {
		t.Fatalf("%d beacons after Recover plus one interval, want 11", a.Ctr.HelloSent)
	}
}

// TestCrashAndResetReleaseHeldPackets: the packets a core holds when it
// crashes or is reset — discovery buffers, and at Reset also the
// jitter-deferred rebroadcasts whose events the Sim reset discarded — go
// back to the node's pool, so its ledger balances against what the MAC
// still holds and the free lists grow by what was released.
func TestCrashAndResetReleaseHeldPackets(t *testing.T) {
	sim, a, _ := warmPair(DefaultConfig())
	pool := a.Env.Pool
	pool.SetAudit(true)
	// balanced checks the ledger: every live borrow is held by a's MAC,
	// none by a itself, and nothing was released twice.
	balanced := func(when string) {
		t.Helper()
		if n := a.HeldPackets(); n != 0 {
			t.Errorf("%s: the core still holds %d packets", when, n)
		}
		if live, mac := pool.LiveBorrowed(), a.Env.Mac.HeldPackets(); live != mac {
			t.Errorf("%s: %d packets borrowed, %d held by the MAC", when, live, mac)
		}
		if df := pool.DoubleFrees(); df != 0 {
			t.Errorf("%s: %d double frees", when, df)
		}
	}
	buffer := func(dst pkt.NodeID) {
		for seq := 0; seq < 3; seq++ {
			a.Send(pool.Data(0, dst, 512, 0, seq, sim.Now(), 30))
		}
	}

	buffer(9)
	buffer(8)
	if n := a.HeldPackets(); n != 6 {
		t.Fatalf("%d packets buffered for discovery, want 6", n)
	}
	free := pool.Len()
	a.Crash()
	balanced("after Crash")
	if got := pool.Len() - free; got != 6 {
		t.Errorf("Crash returned %d packets to the free lists, want 6", got)
	}

	a.Recover()
	buffer(9)
	rreq := pool.RREQ(pkt.RREQBody{Origin: 1, Target: 7, ID: 1}, sim.Now(), 10)
	a.ForwardRREQ(rreq, des.Second)
	pool.Release(rreq)
	if n := a.HeldPackets(); n != 4 {
		t.Fatalf("%d packets held before Reset, want 3 buffered and 1 deferred", n)
	}
	free = pool.Len()
	sim.Reset()
	a.Reset(a.Env, a.Cfg, nopPolicy{})
	balanced("after Reset")
	if got := pool.Len() - free; got != 4 {
		t.Errorf("Reset returned %d packets to the free lists, want 4", got)
	}
}

// TestNeighborTableChurnAllocatesNothing: a warm table that goes through
// the same joins, two-hop beacons of different sizes and departures again
// after a Reset finds every two-hop buffer where the first cycle left it,
// so the second cycle allocates nothing.
func TestNeighborTableChurnAllocatesNothing(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, des.Second)
	tables := make([][]pkt.NeighborLoad, 5)
	for n := range tables {
		for i := 0; i < 1+3*n; i++ {
			tables[n] = append(tables[n], pkt.NeighborLoad{ID: pkt.NodeID(20 + i), Load: 0.1})
		}
	}
	cycle := func() {
		nt.Reset(des.Second)
		nt.Update(1, 0.1, tables[4])
		nt.Update(2, 0.2, tables[0])
		nt.Update(3, 0.3, tables[2])
		nt.Remove(1)
		nt.Update(4, 0.4, tables[3])
		nt.Update(0, 0.5, tables[1])
		nt.Remove(3)
		nt.Update(1, 0.1, tables[4])
		nt.Update(2, 0.2, tables[3])
	}
	// AllocsPerRun's warm-up call is the first cycle; it measures the second.
	if n := testing.AllocsPerRun(1, cycle); n != 0 {
		t.Errorf("second churn cycle: %v allocs, want 0", n)
	}
	if nt.Count() != 4 || len(nt.hops[1]) != len(tables[4]) || len(nt.hops[2]) != len(tables[3]) {
		t.Fatalf("cycle not exercised: %d neighbours, tables of %d and %d", nt.Count(), len(nt.hops[1]), len(nt.hops[2]))
	}
}
