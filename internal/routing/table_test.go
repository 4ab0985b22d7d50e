package routing

import (
	"testing"
	"testing/quick"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

func route(dst, via pkt.NodeID, seq uint32, hops int, cost float64, exp des.Time) Route {
	return Route{
		Dst: dst, NextHop: via, HopCount: hops, Cost: cost,
		Seq: seq, SeqValid: true, Expires: exp, Valid: true,
	}
}

func TestTableInstallAndLookup(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	if tb.Lookup(5) != nil {
		t.Fatal("lookup on empty table")
	}
	if !tb.Update(route(5, 2, 1, 3, 3, des.Second)) {
		t.Fatal("initial install rejected")
	}
	r := tb.Lookup(5)
	if r == nil || r.NextHop != 2 || r.HopCount != 3 {
		t.Fatalf("lookup %+v", r)
	}
}

func TestTableExpiry(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 1, 3, 3, des.Second))
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		if tb.Lookup(5) != nil {
			t.Error("expired route returned")
		}
	}), 0, 0)
	sim.Run()
}

func TestTableNewerSeqWins(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 2, 2, des.Second))
	// Older seq rejected even with better metric.
	if tb.Update(route(5, 3, 9, 1, 1, des.Second)) {
		t.Fatal("stale sequence number displaced fresher route")
	}
	// Newer seq accepted even with worse metric.
	if !tb.Update(route(5, 4, 11, 9, 9, des.Second)) {
		t.Fatal("fresher sequence number rejected")
	}
	if tb.Lookup(5).NextHop != 4 {
		t.Fatal("wrong route after seq update")
	}
}

func TestTableSameSeqBetterCostWins(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 4, 4.0, des.Second))
	if !tb.Update(route(5, 3, 10, 4, 2.5, des.Second)) {
		t.Fatal("cheaper route rejected")
	}
	if tb.Update(route(5, 4, 10, 4, 3.0, des.Second)) {
		t.Fatal("pricier route accepted")
	}
	// Equal cost: fewer hops wins.
	if !tb.Update(route(5, 6, 10, 3, 2.5, des.Second)) {
		t.Fatal("equal-cost shorter route rejected")
	}
	if tb.Lookup(5).NextHop != 6 {
		t.Fatal("wrong winner")
	}
}

func TestTableLifetimeRefreshOnSameRoute(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 4, 4, des.Second))
	// Same route content, longer lifetime → lifetime extends.
	if !tb.Update(route(5, 2, 10, 4, 4, 3*des.Second)) {
		t.Fatal("lifetime refresh rejected")
	}
	if tb.Lookup(5).Expires != 3*des.Second {
		t.Fatalf("expires %v", tb.Lookup(5).Expires)
	}
}

func TestTableRefresh(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 4, 4, des.Second))
	tb.Refresh(5, 7*des.Second)
	if tb.Lookup(5).Expires != 7*des.Second {
		t.Fatalf("refresh did not extend lifetime: %v", tb.Lookup(5).Expires)
	}
	// Refresh must never shorten.
	tb.Refresh(5, des.Millisecond)
	if tb.Lookup(5).Expires != 7*des.Second {
		t.Fatal("refresh shortened lifetime")
	}
}

func TestTableInvalidate(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 4, 4, des.Second))
	r := invalidate(tb, 5)
	if r == nil || r.Seq != 11 {
		t.Fatalf("invalidate returned %+v (seq should bump)", r)
	}
	if tb.Lookup(5) != nil {
		t.Fatal("invalidated route still returned")
	}
	if invalidate(tb, 5) != nil {
		t.Fatal("double invalidate returned a route")
	}
	// A fresher advertisement can resurrect the destination.
	if !tb.Update(route(5, 3, 12, 2, 2, des.Second)) {
		t.Fatal("post-invalidation update rejected")
	}
}

func TestTableInvalidateVia(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 4, 4, des.Second))
	tb.Update(route(6, 2, 3, 1, 1, des.Second))
	tb.Update(route(7, 9, 8, 2, 2, des.Second))
	lost := tb.InvalidateVia(2, nil)
	if len(lost) != 2 {
		t.Fatalf("lost %d routes, want 2", len(lost))
	}
	if tb.Lookup(5) != nil || tb.Lookup(6) != nil {
		t.Fatal("routes via dead neighbour still valid")
	}
	if tb.Lookup(7) == nil {
		t.Fatal("unrelated route was invalidated")
	}
}

// TestTableExpiredEntryKeepsFreshness pins the loop-freedom rule for dead
// entries: expiry bumps the stored sequence number (like Invalidate), and
// a stale advertisement — one derived from the route before it expired, so
// carrying the old seq — must not re-install it. Only equal-or-fresher
// information may resurrect the destination.
func TestTableExpiredEntryKeepsFreshness(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 100, 1, 1, des.Millisecond))
	sim.ScheduleCall(des.Second, des.Func(func() {
		// A copy of the expired route, still in flight: rejected.
		if tb.Update(route(5, 3, 100, 2, 2, sim.Now()+des.Second)) {
			t.Error("stale-seq candidate accepted against expired entry")
		}
		if r := get(tb, 5); r.Valid || r.Seq != 101 {
			t.Errorf("expired entry not finalised with bumped seq: %+v", r)
		}
		// Information at the bumped seq (a fresh discovery) installs.
		if !tb.Update(route(5, 4, 101, 2, 2, sim.Now()+des.Second)) {
			t.Error("fresh candidate rejected against expired entry")
		}
	}), 0, 0)
	sim.Run()
	if r := tb.Lookup(5); r == nil || r.NextHop != 4 {
		t.Fatalf("expired entry not resurrected by fresh route: %+v", r)
	}
}

// Property: after any sequence of updates, the table never holds a valid
// route whose seq is older than the newest seq ever accepted for that
// destination.
func TestQuickTableSeqMonotone(t *testing.T) {
	src := rng.New(7)
	f := func(n uint8) bool {
		sim := des.NewSim()
		tb := NewTable(sim)
		var maxSeq uint32
		installedAny := false
		for i := 0; i < int(n%40)+1; i++ {
			seq := uint32(src.Intn(100))
			cand := route(1, pkt.NodeID(src.Intn(5)+2), seq, src.Intn(5)+1,
				float64(src.Intn(10)+1), des.Second)
			if tb.Update(cand) {
				if !installedAny || pkt.SeqNewer(seq, maxSeq) {
					maxSeq = seq
					installedAny = true
				}
			}
		}
		r := tb.Lookup(1)
		if r == nil {
			return true
		}
		return r.Seq == maxSeq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDupCache(t *testing.T) {
	sim := des.NewSim()
	d := NewDupCache(sim, des.Second)
	if d.Seen(1, 1) {
		t.Fatal("fresh flood reported seen")
	}
	if !d.Seen(1, 1) {
		t.Fatal("repeat not detected")
	}
	if d.Seen(1, 2) || d.Seen(2, 1) {
		t.Fatal("distinct floods conflated")
	}
}

func TestDupCacheExpiry(t *testing.T) {
	sim := des.NewSim()
	d := NewDupCache(sim, des.Second)
	d.Seen(1, 1)
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		if d.Seen(1, 1) {
			t.Error("expired entry still considered seen")
		}
	}), 0, 0)
	sim.Run()
}

// TestDupCacheReusesExpiredSlot: an origin's live floods are never
// forgotten, however many there are — 100 from one origin are all still
// seen a tick before the horizon and none at it — and once they have
// expired, as many new floods fit in the ring without growing it.
func TestDupCacheReusesExpiredSlot(t *testing.T) {
	sim := des.NewSim()
	d := NewDupCache(sim, des.Second)
	for i := uint32(0); i < 100; i++ {
		if d.Seen(1, i) {
			t.Fatalf("fresh flood %d reported seen", i)
		}
	}
	if d.Len() != 100 {
		t.Fatalf("one origin holds %d live floods, want all 100", d.Len())
	}
	capacity := len(d.ring)
	sim.ScheduleCall(des.Second-1, des.Func(func() {
		for i := uint32(0); i < 100; i++ {
			if !d.Seen(1, i) {
				t.Errorf("live flood %d forgotten a tick before the horizon", i)
			}
		}
	}), 0, 0)
	sim.ScheduleCall(des.Second, des.Func(func() {
		if d.Len() != 0 {
			t.Errorf("%d entries still live at the horizon", d.Len())
		}
		for i := uint32(0); i < 100; i++ {
			if d.Seen(1, i) {
				t.Errorf("flood %d still seen at the horizon", i)
			}
		}
		if d.Len() != 100 || len(d.ring) != capacity {
			t.Errorf("len=%d, ring capacity %d → %d; want the 100 re-recorded floods live in the old ring",
				d.Len(), capacity, len(d.ring))
		}
	}), 0, 0)
	sim.Run()
}

func TestNeighborTableFreshness(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, 2*des.Second)
	nt.Update(1, 0.5, nil)
	nt.Update(2, 0.3, nil)
	if nt.Count() != 2 {
		t.Fatalf("count %d", nt.Count())
	}
	sim.ScheduleCall(des.Second, des.Func(func() {
		nt.Update(2, 0.4, nil) // refresh node 2 only
	}), 0, 0)
	sim.ScheduleCall(2*des.Second+des.Millisecond, des.Func(func() {
		if nt.Count() != 1 {
			t.Errorf("count %d after staleness, want 1", nt.Count())
		}
		loads := nt.Loads(nil)
		if len(loads) != 1 || loads[0].ID != 2 {
			t.Errorf("loads %v", loads)
		}
	}), 0, 0)
	sim.Run()
}

func TestNeighborTableRemove(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, des.Second)
	nt.Update(1, 0.5, nil)
	nt.Remove(1)
	if nt.Count() != 0 {
		t.Fatal("removed neighbour still counted")
	}
}

func TestNeighborhoodLoadOneHop(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, des.Second)
	nt.Update(1, 0.4, nil)
	nt.Update(2, 0.8, nil)
	// mean(own=0.2, 0.4, 0.8) = 1.4/3
	got := nt.NeighborhoodLoad(0, 0.2, false)
	want := 1.4 / 3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("NL = %v, want %v", got, want)
	}
}

func TestNeighborhoodLoadTwoHop(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, des.Second)
	// Neighbour 1 piggybacks its own neighbours 5 (0.6) and 0 (self — must
	// be skipped).
	nt.Update(1, 0.4, []pkt.NeighborLoad{{ID: 5, Load: 0.6}, {ID: 0, Load: 0.9}})
	// one-hop: mean(0.2, 0.4) = 0.3
	oneHop := nt.NeighborhoodLoad(0, 0.2, false)
	if d := oneHop - 0.3; d > 1e-12 || d < -1e-12 {
		t.Fatalf("one-hop NL %v", oneHop)
	}
	// two-hop: (0.2 + 0.4 + 0.5*0.6) / (1 + 1 + 0.5) = 0.9/2.5 = 0.36
	twoHop := nt.NeighborhoodLoad(0, 0.2, true)
	if d := twoHop - 0.36; d > 1e-12 || d < -1e-12 {
		t.Fatalf("two-hop NL %v", twoHop)
	}
}

func TestNeighborhoodLoadNoNeighbors(t *testing.T) {
	sim := des.NewSim()
	nt := NewNeighborTable(sim, des.Second)
	if got := nt.NeighborhoodLoad(0, 0.7, true); got != 0.7 {
		t.Fatalf("isolated NL %v, want own load", got)
	}
}

func TestCountersControlSum(t *testing.T) {
	c := Counters{
		RREQOriginated: 1, RREQForwarded: 2, RREPSent: 3,
		RREPForwarded: 4, RERRSent: 5, HelloSent: 6,
		RREQReceived: 100, DataForwarded: 100,
	}
	if got := c.ControlPacketsSent(); got != 21 {
		t.Fatalf("ControlPacketsSent = %d", got)
	}
}

// TestTableSameSeqLongerPathRejected pins the loop-freedom guard: at an
// equal sequence number a cheaper route must not displace the current one
// when it lengthens the path — that is the update that lets two relays of
// one flood adopt each other as next hop (a persistent two-node loop).
func TestTableSameSeqLongerPathRejected(t *testing.T) {
	sim := des.NewSim()
	tb := NewTable(sim)
	tb.Update(route(5, 2, 10, 3, 4.0, des.Second))
	if tb.Update(route(5, 3, 10, 4, 1.0, des.Second)) {
		t.Fatal("longer path accepted at equal seq on cost alone")
	}
	// A strictly newer sequence number may still install the longer,
	// cheaper route (fresh information resets the hop argument).
	if !tb.Update(route(5, 3, 11, 4, 1.0, des.Second)) {
		t.Fatal("fresh longer route rejected")
	}
	// And at equal seq a cheaper route over fewer hops still wins.
	if !tb.Update(route(5, 4, 11, 2, 0.5, des.Second)) {
		t.Fatal("cheaper shorter route rejected")
	}
	if tb.Lookup(5).NextHop != 4 {
		t.Fatal("wrong winner")
	}
}
