package pkt

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"clnlr/internal/des"
)

// samples returns one packet of every shape, written out field by field:
// what shape(pl, i) must build on every path.
func samples() []*Packet {
	return []*Packet{
		{Kind: Data, Src: 1, Dst: 2, TTL: 16, Bytes: 512 + IPHeaderBytes + UDPHeaderBytes,
			CreatedAt: 5 * des.Second, FlowID: 3, Seq: 7},
		{Kind: RREQ, Src: 1, Dst: Broadcast, TTL: 20, Bytes: RREQBytes, CreatedAt: des.Second,
			RREQ: &RREQBody{ID: 9, Origin: 1, OriginSeq: 4, Target: 5, TargetSeq: 2,
				TargetSeqKnown: true, HopCount: 3, Cost: 4.5, Attempt: 1}},
		{Kind: RREP, Src: 4, Dst: 1, TTL: 20, Bytes: RREPBytes, CreatedAt: 2 * des.Second,
			RREP: &RREPBody{Origin: 1, Target: 5, TargetSeq: 2, HopCount: 3, Cost: 4.5, Lifetime: des.Second}},
		{Kind: RERR, Src: 3, Dst: Broadcast, TTL: 1, Bytes: RERRBaseBytes + 2*RERRPerDestBytes, CreatedAt: des.Second,
			RERR: &RERRBody{Unreachable: []UnreachableDest{{Node: 5, Seq: 2}, {Node: 6, Seq: 9}}}},
		{Kind: Hello, Src: 2, Dst: Broadcast, TTL: 1, Bytes: HelloBaseBytes + 2*HelloPerNbrBytes, CreatedAt: des.Second,
			Hello: &HelloBody{Load: 0.7, NbrLoads: []NeighborLoad{{ID: 1, Load: 0.2}, {ID: 3, Load: 0.9}}}},
		{Kind: Hello, Src: 4, Dst: Broadcast, TTL: 1, Bytes: HelloBaseBytes, CreatedAt: 3 * des.Second,
			Hello: &HelloBody{Load: 0.4}},
	}
}

// receiverView returns a copy of p with what no receiver reads cleared:
// the table storage a HELLO body keeps while it carries a one-hop beacon.
// Everything else, a table's nil-ness included, is compared as built.
func receiverView(p *Packet) *Packet {
	q := *p
	if p.Hello != nil {
		h := *p.Hello
		h.spare = nil
		q.Hello = &h
	}
	return &q
}

// shape builds samples()[i] through pl's constructors.
func shape(pl *Pool, i int) *Packet {
	switch i {
	case 0:
		return pl.Data(1, 2, 512, 3, 7, 5*des.Second, 16)
	case 1:
		return pl.RREQ(RREQBody{ID: 9, Origin: 1, OriginSeq: 4, Target: 5, TargetSeq: 2,
			TargetSeqKnown: true, HopCount: 3, Cost: 4.5, Attempt: 1}, des.Second, 20)
	case 2:
		return pl.RREP(4, RREPBody{Origin: 1, Target: 5, TargetSeq: 2, HopCount: 3,
			Cost: 4.5, Lifetime: des.Second}, 2*des.Second, 20)
	case 3:
		return pl.RERR(3, []UnreachableDest{{Node: 5, Seq: 2}, {Node: 6, Seq: 9}}, des.Second)
	case 4:
		return pl.Hello(2, HelloBody{Load: 0.7, NbrLoads: []NeighborLoad{{ID: 1, Load: 0.2}, {ID: 3, Load: 0.9}}}, des.Second)
	default:
		return pl.Hello(4, HelloBody{Load: 0.4}, 3*des.Second)
	}
}

// seedStale fills every free list with a packet carrying other contents
// (and a longer RERR list, and two-hop tables under both HELLO samples),
// so a hit recycles storage that must be overwritten in full.
func seedStale(pl *Pool) {
	pl.Release(pl.Data(8, 9, 1, 1, 1, des.Millisecond, 1))
	pl.Release(pl.RREQ(RREQBody{ID: 1, Origin: 7, Target: 8, HopCount: 9}, 0, 1))
	pl.Release(pl.RREP(9, RREPBody{Origin: 7, Target: 8}, 0, 1))
	pl.Release(pl.RERR(9, []UnreachableDest{{Node: 1, Seq: 1}, {Node: 2, Seq: 2}, {Node: 3, Seq: 3}}, 0))
	h := pl.Hello(8, HelloBody{Load: 0.3, NbrLoads: []NeighborLoad{{ID: 8, Load: 1}, {ID: 7, Load: 0.5}}}, 0)
	pl.Release(pl.Hello(9, HelloBody{Load: 0.1, NbrLoads: []NeighborLoad{{ID: 9, Load: 1}}}, 0))
	pl.Release(h)
}

// TestPooledConstructorsMatchPlain checks that every constructor builds
// the packet written out in samples, field for field, on every path: a
// recycled packet, a miss and no pool.
func TestPooledConstructorsMatchPlain(t *testing.T) {
	for _, tc := range poolPaths(seedStale) {
		if tc.name == "hit" && tc.pl.Len() != 6 {
			t.Fatalf("Len() = %d after seeding six packets, want 6", tc.pl.Len())
		}
		for i, want := range samples() {
			if p := shape(tc.pl, i); !reflect.DeepEqual(receiverView(p), want) {
				t.Errorf("%s: %v built as %+v, want %+v", tc.name, want.Kind, p, want)
			}
		}
		if tc.pl.Len() != 0 {
			t.Fatalf("%s: Len() = %d after building every shape, want 0", tc.name, tc.pl.Len())
		}
	}
}

// TestPoolRecyclesStorage checks that a released packet (and its body) is
// the very object handed out next for the same shape.
func TestPoolRecyclesStorage(t *testing.T) {
	pl := NewPool()
	p := pl.RREQ(RREQBody{ID: 1, Origin: 2, Target: 3}, des.Second, 10)
	body := p.RREQ
	pl.Release(p)
	q := pl.RREQ(RREQBody{ID: 4, Origin: 5, Target: 6}, 2*des.Second, 10)
	if q != p || q.RREQ != body {
		t.Error("pooled RREQ did not reuse the released packet and body")
	}
	// Shapes must not cross: a data packet cannot come from the RREQ list.
	pl.Release(q)
	d := pl.Data(1, 2, 100, 0, 0, 0, 5)
	if d == q {
		t.Error("data allocation reused an RREQ-shaped packet")
	}
	if pl.Len() != 1 {
		t.Errorf("Len() = %d, want 1 (the RREQ still pooled)", pl.Len())
	}
}

// TestPooledCloneMatchesClone checks Clone for every shape on every path
// (a recycled packet, a miss and no pool): the clone equals the original
// field for field and is a genuinely independent deep copy.
func TestPooledCloneMatchesClone(t *testing.T) {
	for _, tc := range poolPaths(seedStale) {
		for _, orig := range samples() {
			c := tc.pl.Clone(orig)
			if !reflect.DeepEqual(receiverView(c), orig) {
				t.Errorf("%s: %v clone differs: %+v vs %+v", tc.name, orig.Kind, c, orig)
				continue
			}
			if c == orig {
				t.Errorf("%s: %v clone aliases the original", tc.name, orig.Kind)
			}
			// Mutating the clone's body must not leak into the original.
			switch {
			case c.RREQ != nil:
				c.RREQ.Cost++
				if orig.RREQ.Cost == c.RREQ.Cost {
					t.Errorf("%s: RREQ clone shares its body", tc.name)
				}
			case c.RREP != nil:
				c.RREP.Cost++
				if orig.RREP.Cost == c.RREP.Cost {
					t.Errorf("%s: RREP clone shares its body", tc.name)
				}
			case c.RERR != nil:
				c.RERR.Unreachable[0].Seq++
				if orig.RERR.Unreachable[0].Seq == c.RERR.Unreachable[0].Seq {
					t.Errorf("%s: RERR clone shares its unreachable list", tc.name)
				}
			case c.Hello != nil && c.Hello.NbrLoads != nil:
				c.Hello.NbrLoads[0].Load++
				if orig.Hello.NbrLoads[0].Load == c.Hello.NbrLoads[0].Load {
					t.Errorf("%s: Hello clone shares its neighbour loads", tc.name)
				}
			}
		}
		if tc.pl.Len() != 0 {
			t.Fatalf("%s: Len() = %d after cloning every shape, want 0", tc.name, tc.pl.Len())
		}
	}
}

// TestPoolMissCoAllocatesBody: a miss allocates a control packet's body
// in the same object as the packet, so building or cloning a packet costs
// one allocation, plus one for a RERR's or HELLO's non-empty list; a nil
// pool costs the same, and a hit nothing.
func TestPoolMissCoAllocatesBody(t *testing.T) {
	want := []float64{1, 1, 1, 2, 2, 1} // Data, RREQ, RREP, RERR, two-hop and one-hop HELLO
	for _, tc := range []struct {
		name string
		pl   *Pool
	}{{"miss", NewPool()}, {"nil-pool", nil}} {
		for i, orig := range samples() {
			if got := testing.AllocsPerRun(100, func() { shape(tc.pl, i) }); got != want[i] {
				t.Errorf("%s: building a %v costs %v allocations, want %v", tc.name, orig.Kind, got, want[i])
			}
			if got := testing.AllocsPerRun(100, func() { tc.pl.Clone(orig) }); got != want[i] {
				t.Errorf("%s: cloning a %v costs %v allocations, want %v", tc.name, orig.Kind, got, want[i])
			}
		}
	}
	pl := NewPool()
	for i, orig := range samples() {
		if got := testing.AllocsPerRun(100, func() { pl.Release(shape(pl, i)); pl.Release(pl.Clone(orig)) }); got != 0 {
			t.Errorf("hit: building and cloning a %v costs %v allocations, want 0", orig.Kind, got)
		}
	}
}

// TestHelloKeepsTableStorage: a pooled HELLO body that carries a one-hop
// beacon keeps its table's storage, and the next two-hop beacon built on
// it reuses that storage without allocating — on a warm engine that
// alternates one-hop and two-hop schemes, each table is allocated once.
func TestHelloKeepsTableStorage(t *testing.T) {
	pl := NewPool()
	loads := []NeighborLoad{{ID: 1, Load: 0.2}, {ID: 3, Load: 0.9}}
	p := pl.Hello(2, HelloBody{NbrLoads: loads}, 0)
	table := &p.Hello.NbrLoads[0]
	pl.Release(p)
	got := testing.AllocsPerRun(20, func() {
		pl.Release(pl.Hello(2, HelloBody{Load: 0.1}, 0))
		q := pl.Hello(2, HelloBody{NbrLoads: loads}, 0)
		if &q.Hello.NbrLoads[0] != table {
			t.Fatal("a two-hop beacon after a one-hop one did not reuse the table storage")
		}
		pl.Release(q)
	})
	if got != 0 {
		t.Errorf("one-hop then two-hop beacon on a pooled body: %v allocations, want 0", got)
	}
}

// TestPoolCap (a historical name: the pool has no cap) checks that the
// pool keeps every packet released to it.
func TestPoolCap(t *testing.T) {
	pl := NewPool()
	for i := 0; i < 517; i++ {
		pl.Release(nilPool.Data(1, 2, 10, 0, i, 0, 5))
	}
	if pl.Len() != 517 {
		t.Errorf("Len() = %d, want all 517 released", pl.Len())
	}
}

// TestNilPoolFallsBack checks a nil pool is safe to use and keeps
// nothing: what it is given back falls to the GC, and it reports no
// pooled packets or ledger state.
func TestNilPoolFallsBack(t *testing.T) {
	var pl *Pool
	pl.Release(nil)
	pl.Release(pl.Data(1, 2, 10, 0, 0, 0, 5))
	pl.SetAudit(true)
	if pl.Len() != 0 || pl.LiveBorrowed() != 0 || pl.DoubleFrees() != 0 {
		t.Error("nil pool reported pooled packets or ledger state")
	}
}

// TestPoolLedgerTracksBorrows pins the audit ledger: every constructor
// and Clone registers the packet as live, Release retires it.
func TestPoolLedgerTracksBorrows(t *testing.T) {
	pl := NewPool()
	pl.SetAudit(true)
	var ps []*Packet
	ps = append(ps,
		pl.Data(1, 2, 512, 3, 7, des.Second, 16),
		pl.RREQ(RREQBody{ID: 9, Origin: 1, Target: 5}, des.Second, 20),
		pl.Hello(2, HelloBody{Load: 0.7}, des.Second),
	)
	ps = append(ps, pl.Clone(ps[0]), pl.Clone(ps[1]))
	if got := pl.LiveBorrowed(); got != len(ps) {
		t.Fatalf("LiveBorrowed = %d, want %d", got, len(ps))
	}
	for _, p := range ps {
		pl.Release(p)
	}
	if got := pl.LiveBorrowed(); got != 0 {
		t.Fatalf("LiveBorrowed = %d after releasing everything, want 0", got)
	}
	if pl.DoubleFrees() != 0 {
		t.Fatalf("clean borrow/release cycle counted %d double frees", pl.DoubleFrees())
	}
}

// TestPoolLedgerDoubleFree pins double-free detection: the second Release
// of one packet is counted and refused (the packet is not re-pooled, so
// the free list cannot hand the same pointer out twice).
func TestPoolLedgerDoubleFree(t *testing.T) {
	pl := NewPool()
	pl.SetAudit(true)
	p := pl.Data(1, 2, 64, 0, 0, des.Second, 16)
	pl.Release(p)
	lenAfterFirst := pl.Len()
	pl.Release(p)
	if got := pl.DoubleFrees(); got != 1 {
		t.Fatalf("DoubleFrees = %d, want 1", got)
	}
	if pl.Len() != lenAfterFirst {
		t.Fatalf("double free re-pooled the packet (len %d -> %d)", lenAfterFirst, pl.Len())
	}
}

// TestPoolLedgerDisarm pins SetAudit(false): the ledger is dropped and
// the pool returns to untracked operation.
func TestPoolLedgerDisarm(t *testing.T) {
	pl := NewPool()
	pl.SetAudit(true)
	p := pl.Data(1, 2, 64, 0, 0, des.Second, 16)
	pl.SetAudit(false)
	if pl.LiveBorrowed() != 0 || pl.DoubleFrees() != 0 {
		t.Fatal("disarmed pool still reports ledger state")
	}
	pl.Release(p) // must re-pool normally with the ledger off
	if pl.Len() == 0 {
		t.Fatal("disarmed pool dropped a released packet")
	}
	q := pl.Data(3, 4, 64, 0, 0, des.Second, 16)
	if q != p {
		t.Fatal("disarmed pool did not reuse the released packet")
	}
}

// TestPoolLedgerEarlierArming: a packet lent under one arming and
// released after the pool is armed again is not live in the new ledger,
// so its release counts as a double free and is refused.
func TestPoolLedgerEarlierArming(t *testing.T) {
	pl := NewPool()
	pl.SetAudit(true)
	p := pl.Data(1, 2, 64, 0, 0, des.Second, 16)
	pl.SetAudit(true)
	if got := pl.LiveBorrowed(); got != 0 {
		t.Fatalf("re-armed pool reports %d live borrows, want 0", got)
	}
	pl.Release(p)
	if got := pl.DoubleFrees(); got != 1 {
		t.Fatalf("release of a packet lent under the earlier arming: DoubleFrees = %d, want 1", got)
	}
	if pl.Len() != 0 {
		t.Fatal("packet from the earlier arming was re-pooled")
	}
}

// TestPoolCloneCarriesNoLease: a copy of a lent packet — by a nil pool's
// Clone or by a disarmed pool's Clone — is not on loan from the lender, so the
// lender refuses it as a double free and still counts only the original.
func TestPoolCloneCarriesNoLease(t *testing.T) {
	lender, other := NewPool(), NewPool()
	lender.SetAudit(true)
	p := lender.Data(1, 2, 64, 0, 0, des.Second, 16)
	other.Release(other.Data(1, 2, 64, 0, 0, des.Second, 16)) // so other's Clone recycles
	for _, c := range []*Packet{nilPool.Clone(p), other.Clone(p)} {
		lender.Release(c)
	}
	if df, live := lender.DoubleFrees(), lender.LiveBorrowed(); df != 2 || live != 1 {
		t.Fatalf("releasing two copies: DoubleFrees = %d, LiveBorrowed = %d, want 2 and 1", df, live)
	}
}

// mapLedger is the borrow ledger as a set of live packets per pool, the
// reference the stamped ledger is checked against.
type mapLedger struct {
	live        map[*Packet]struct{}
	doubleFrees uint64
}

func (l *mapLedger) arm(on bool) {
	if on {
		l.live, l.doubleFrees = map[*Packet]struct{}{}, 0
	} else {
		l.live = nil
	}
}

func (l *mapLedger) lend(p *Packet) *Packet {
	if l.live != nil {
		l.live[p] = struct{}{}
	}
	return p
}

// release reports whether the pool takes p back.
func (l *mapLedger) release(p *Packet) bool {
	if l.live == nil {
		return true
	}
	if _, ok := l.live[p]; !ok {
		l.doubleFrees++
		return false
	}
	delete(l.live, p)
	return true
}

// TestPoolLedgerMatchesMapLedger drives three pools through random
// borrows of every shape, clones (through a pool, across pools and
// through a nil pool), releases to the lending pool or a foreign one, repeated
// releases and re-armings of all pools at once, as an engine arms them,
// and requires the stamped ledgers to count live borrows and double frees,
// and to take packets back, exactly as a per-pool set of live packets
// does. A disarmed pool takes back whatever it is given, so there the
// script only releases packets no pool has taken back yet: otherwise one
// pointer could sit in two free lists and be lent twice at once, a state
// neither ledger is defined for (an armed pool never takes back a packet
// that is not out on loan from it).
func TestPoolLedgerMatchesMapLedger(t *testing.T) {
	refused := 0
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		pools := []*Pool{NewPool(), NewPool(), NewPool()}
		refs := make([]mapLedger, len(pools))
		var held []*Packet        // every packet handed out, taken back or not
		out := map[*Packet]bool{} // handed out and not taken back by any pool
		lend := func(ref *mapLedger, p *Packet) {
			held = append(held, ref.lend(p))
			out[p] = true
		}
		for step := 0; step < 3000; step++ {
			k := rnd.Intn(len(pools))
			pl, ref := pools[k], &refs[k]
			switch op := rnd.Intn(20); {
			case op == 0: // an engine arms or disarms every node's pool at once
				on := rnd.Intn(4) != 0
				for j := range pools {
					pools[j].SetAudit(on)
					refs[j].arm(on)
				}
			case op < 9 || len(held) == 0:
				lend(ref, shape(pl, op%5))
			case op < 12:
				lend(ref, pl.Clone(held[rnd.Intn(len(held))]))
			case op < 13:
				p := nilPool.Clone(held[rnd.Intn(len(held))])
				held = append(held, p)
				out[p] = true
			default:
				p := held[rnd.Intn(len(held))]
				if ref.live == nil && !out[p] {
					continue
				}
				before := pl.Len()
				took := ref.release(p)
				pl.Release(p)
				if pooled := pl.Len() != before; pooled != took {
					t.Fatalf("seed %d step %d: pool %d took the packet back %v, map ledger says %v", seed, step, k, pooled, took)
				}
				if took {
					delete(out, p)
				} else {
					refused++
				}
			}
			for j := range pools {
				if got, want := pools[j].LiveBorrowed(), len(refs[j].live); got != want {
					t.Fatalf("seed %d step %d: pool %d LiveBorrowed = %d, map ledger %d", seed, step, j, got, want)
				}
				if got, want := pools[j].DoubleFrees(), refs[j].doubleFrees; got != want {
					t.Fatalf("seed %d step %d: pool %d DoubleFrees = %d, map ledger %d", seed, step, j, got, want)
				}
			}
		}
	}
	if refused < 1000 {
		t.Fatalf("only %d releases refused: the script hardly exercises double frees", refused)
	}
}

// TestPacketLeaseFillsPadding: the ledger's lease shares Kind's word, so
// an audited Packet is no larger than the fields it carries for the
// protocol.
func TestPacketLeaseFillsPadding(t *testing.T) {
	var p Packet
	if off := unsafe.Offsetof(p.UID); off != 8 {
		t.Errorf("UID at offset %d: Kind and lease no longer share one word", off)
	}
}

// poolPaths names the three ways a pooled constructor can build a packet:
// from a recycled packet, on a miss (empty free list) and with no pool.
func poolPaths(seed func(*Pool)) []struct {
	name string
	pl   *Pool
} {
	hit := NewPool()
	seed(hit)
	return []struct {
		name string
		pl   *Pool
	}{{"hit", hit}, {"miss", NewPool()}, {"nil-pool", nil}}
}

// TestPoolRERRCopiesOnMiss: whichever path builds a RERR, the packet
// owns its unreachable list — a caller that reuses its slice (the
// routing core builds every RERR in one scratch buffer) cannot rewrite a
// packet already handed to the MAC.
func TestPoolRERRCopiesOnMiss(t *testing.T) {
	for _, tc := range poolPaths(func(pl *Pool) {
		pl.Release(pl.RERR(9, []UnreachableDest{{Node: 1, Seq: 1}}, 0))
	}) {
		lost := []UnreachableDest{{Node: 5, Seq: 2}, {Node: 6, Seq: 9}}
		p := tc.pl.RERR(3, lost, des.Second)
		lost[0] = UnreachableDest{Node: 40, Seq: 40}
		_ = append(lost[:1], UnreachableDest{Node: 41, Seq: 41})
		want := []UnreachableDest{{Node: 5, Seq: 2}, {Node: 6, Seq: 9}}
		if !reflect.DeepEqual(p.RERR.Unreachable, want) {
			t.Errorf("%s: RERR list %v after the caller reused its slice, want %v", tc.name, p.RERR.Unreachable, want)
		}
	}
}

// TestPoolHelloCopiesOnMiss is the same for a HELLO's piggybacked loads,
// which the routing core builds in one per-node buffer per beacon. An
// empty two-hop table stays non-nil and a one-hop beacon's stays nil.
func TestPoolHelloCopiesOnMiss(t *testing.T) {
	for _, tc := range poolPaths(func(pl *Pool) {
		pl.Release(pl.Hello(9, HelloBody{Load: 0.1, NbrLoads: []NeighborLoad{{ID: 9, Load: 1}}}, 0))
	}) {
		loads := []NeighborLoad{{ID: 1, Load: 0.2}, {ID: 3, Load: 0.9}}
		p := tc.pl.Hello(2, HelloBody{Load: 0.7, NbrLoads: loads}, des.Second)
		loads[1] = NeighborLoad{ID: 40, Load: 0.4}
		want := []NeighborLoad{{ID: 1, Load: 0.2}, {ID: 3, Load: 0.9}}
		if !reflect.DeepEqual(p.Hello.NbrLoads, want) {
			t.Errorf("%s: HELLO loads %v after the caller reused its slice, want %v", tc.name, p.Hello.NbrLoads, want)
		}
	}
	// The hit recycles the other kind of beacon each time: a warm engine
	// may run a one-hop scheme after a two-hop one and the other way round.
	for _, tc := range poolPaths(func(pl *Pool) {
		pl.Release(pl.Hello(9, HelloBody{}, 0))
	}) {
		if p := tc.pl.Hello(2, HelloBody{NbrLoads: []NeighborLoad{}}, 0); p.Hello.NbrLoads == nil {
			t.Errorf("%s: an empty two-hop table became nil", tc.name)
		}
	}
	for _, tc := range poolPaths(func(pl *Pool) {
		pl.Release(pl.Hello(9, HelloBody{NbrLoads: []NeighborLoad{{ID: 9, Load: 1}}}, 0))
	}) {
		if p := tc.pl.Hello(2, HelloBody{}, 0); p.Hello.NbrLoads != nil {
			t.Errorf("%s: a one-hop beacon gained a two-hop table", tc.name)
		}
	}
}

// TestPooledListsGrowOnce: a recycled RERR or HELLO body handed a longer
// list than any before — by its constructor or by Clone — keeps exact
// contents, and once that list has come back, every body the pool holds
// can take a list up to its length: building lists of that length or
// shorter then allocates nothing, however deep in the free list the body
// that gets the longest one lies. (LIFO reuse deals long and short lists
// among the bodies, so a body that only grew when handed a long list
// would make a warm engine allocate run after run.)
func TestPooledListsGrowOnce(t *testing.T) {
	const longest = 9
	unreachable := make([]UnreachableDest, longest)
	loads := make([]NeighborLoad, longest)
	for i := range longest {
		unreachable[i] = UnreachableDest{Node: NodeID(i + 1), Seq: uint32(10 * i)}
		loads[i] = NeighborLoad{ID: NodeID(i + 1), Load: float64(i) / 10}
	}
	var nilPool *Pool
	kinds := []struct {
		name  string
		build func(pl *Pool, n int) *Packet
		list  func(p *Packet) any
	}{
		{"rerr", func(pl *Pool, n int) *Packet { return pl.RERR(3, unreachable[:n], 0) },
			func(p *Packet) any { return p.RERR.Unreachable }},
		{"hello", func(pl *Pool, n int) *Packet { return pl.Hello(3, HelloBody{Load: 0.5, NbrLoads: loads[:n]}, 0) },
			func(p *Packet) any { return p.Hello.NbrLoads }},
	}
	for _, k := range kinds {
		// Sources for Clone, built outside every pool.
		src := map[int]*Packet{}
		for _, n := range []int{1, 2, 3, longest} {
			src[n] = k.build(nilPool, n)
		}
		for _, path := range []struct {
			name  string
			build func(pl *Pool, n int) *Packet
		}{
			{"constructor", k.build},
			{"clone", func(pl *Pool, n int) *Packet { return pl.Clone(src[n]) }},
		} {
			name := k.name + "/" + path.name
			pl := NewPool()
			const bodies = 24
			var out [bodies]*Packet
			for i := range out {
				out[i] = path.build(pl, 1+i%2)
			}
			for _, p := range out {
				pl.Release(p)
			}
			long := path.build(pl, longest)
			if got, want := k.list(long), k.list(src[longest]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: a recycled body given a longer list holds %v, want %v", name, got, want)
			}
			pl.Release(long)
			// Call d takes d+1 bodies off the free list and gives the
			// longest list to the deepest, which no call before reached.
			depth := 0
			allocs := testing.AllocsPerRun(20, func() {
				depth++
				for i := 0; i <= depth; i++ {
					n := 3
					if i == depth {
						n = longest
					}
					out[i] = path.build(pl, n)
				}
				for i := depth; i >= 0; i-- {
					pl.Release(out[i])
				}
			})
			if allocs != 0 {
				t.Errorf("%s: lists no longer than the longest built: %v allocations, want 0", name, allocs)
			}
		}
	}
}
