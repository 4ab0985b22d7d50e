package pkt

import (
	"testing"
	"testing/quick"

	"clnlr/internal/des"
)

// nilPool builds packets the way a pool-less caller does: fresh storage,
// nothing kept.
var nilPool *Pool

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		Data: "DATA", RREQ: "RREQ", RREP: "RREP", RERR: "RERR", Hello: "HELLO",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q", uint8(k), k.String())
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string %q", Kind(99).String())
	}
}

func TestIsControl(t *testing.T) {
	if Data.IsControl() {
		t.Fatal("Data classified as control")
	}
	for _, k := range []Kind{RREQ, RREP, RERR, Hello} {
		if !k.IsControl() {
			t.Fatalf("%v not classified as control", k)
		}
	}
}

func TestNewDataSizes(t *testing.T) {
	p := nilPool.Data(1, 2, 512, 3, 7, 5*des.Second, 30)
	if p.Bytes != 512+IPHeaderBytes+UDPHeaderBytes {
		t.Fatalf("data bytes %d", p.Bytes)
	}
	if p.Kind != Data || p.Src != 1 || p.Dst != 2 || p.FlowID != 3 || p.Seq != 7 {
		t.Fatalf("data fields %+v", p)
	}
	if p.CreatedAt != 5*des.Second || p.TTL != 30 {
		t.Fatalf("data meta %+v", p)
	}
}

func TestNewRREQCopiesBody(t *testing.T) {
	body := RREQBody{ID: 9, Origin: 1, Target: 5, HopCount: 0, Cost: 1}
	p := nilPool.RREQ(body, 0, 20)
	body.HopCount = 99 // mutating the local must not affect the packet
	if p.RREQ.HopCount != 0 {
		t.Fatal("RREQ aliased the caller's body")
	}
	if p.Dst != Broadcast || p.Src != 1 || p.Bytes != RREQBytes {
		t.Fatalf("rreq meta %+v", p)
	}
}

func TestNewRERRSize(t *testing.T) {
	u := []UnreachableDest{{Node: 3, Seq: 1}, {Node: 4, Seq: 2}}
	p := nilPool.RERR(1, u, 0)
	if p.Bytes != RERRBaseBytes+2*RERRPerDestBytes {
		t.Fatalf("rerr bytes %d", p.Bytes)
	}
	if p.TTL != 1 || p.Dst != Broadcast {
		t.Fatalf("rerr meta %+v", p)
	}
}

func TestNewHelloSize(t *testing.T) {
	body := HelloBody{Load: 0.5, NbrLoads: []NeighborLoad{{1, 0.2}, {2, 0.3}, {3, 0.4}}}
	p := nilPool.Hello(7, body, 0)
	if p.Bytes != HelloBaseBytes+3*HelloPerNbrBytes {
		t.Fatalf("hello bytes %d", p.Bytes)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := nilPool.RREQ(RREQBody{ID: 1, Origin: 2, Target: 3, Cost: 1.5}, 0, 10)
	q := nilPool.Clone(p)
	q.RREQ.HopCount = 5
	q.RREQ.Cost = 9.9
	q.TTL = 1
	if p.RREQ.HopCount != 0 || p.RREQ.Cost != 1.5 || p.TTL != 10 {
		t.Fatal("Clone shares RREQ body with original")
	}

	h := nilPool.Hello(1, HelloBody{Load: 0.1, NbrLoads: []NeighborLoad{{2, 0.5}}}, 0)
	h2 := nilPool.Clone(h)
	h2.Hello.NbrLoads[0].Load = 0.9
	if h.Hello.NbrLoads[0].Load != 0.5 {
		t.Fatal("Clone shares Hello neighbour slice")
	}

	r := nilPool.RERR(1, []UnreachableDest{{2, 3}}, 0)
	r2 := nilPool.Clone(r)
	r2.RERR.Unreachable[0].Node = 99
	if r.RERR.Unreachable[0].Node != 2 {
		t.Fatal("Clone shares RERR slice")
	}

	rp := nilPool.RREP(4, RREPBody{Origin: 1, Target: 2, HopCount: 3}, 0, 10)
	rp2 := nilPool.Clone(rp)
	rp2.RREP.HopCount = 7
	if rp.RREP.HopCount != 3 {
		t.Fatal("Clone shares RREP body")
	}
}

func TestStringForms(t *testing.T) {
	ps := []*Packet{
		nilPool.Data(1, 2, 100, 0, 0, 0, 10),
		nilPool.RREQ(RREQBody{Origin: 1, Target: 2}, 0, 10),
		nilPool.RREP(1, RREPBody{Origin: 1, Target: 2}, 0, 10),
		nilPool.RERR(1, nil, 0),
		nilPool.Hello(1, HelloBody{}, 0),
	}
	for _, p := range ps {
		if p.String() == "" {
			t.Fatalf("empty String for kind %v", p.Kind)
		}
	}
	if Broadcast.String() != "bcast" {
		t.Fatalf("broadcast id string %q", Broadcast.String())
	}
	if NodeID(4).String() != "n4" {
		t.Fatalf("node id string %q", NodeID(4).String())
	}
}

func TestSeqNewerBasics(t *testing.T) {
	if !SeqNewer(2, 1) {
		t.Fatal("2 should be newer than 1")
	}
	if SeqNewer(1, 2) {
		t.Fatal("1 should not be newer than 2")
	}
	if SeqNewer(5, 5) {
		t.Fatal("equal seqs: neither newer")
	}
}

func TestSeqNewerWraparound(t *testing.T) {
	// Near the 32-bit wrap, a small post-wrap number is newer than a huge
	// pre-wrap number.
	var pre uint32 = 0xFFFFFFF0
	var post uint32 = 5
	if !SeqNewer(post, pre) {
		t.Fatal("wraparound: post-wrap seq should be newer")
	}
	if SeqNewer(pre, post) {
		t.Fatal("wraparound: pre-wrap seq should be older")
	}
}

// Property: SeqNewer is a strict order on any pair closer than 2^31 apart:
// exactly one of newer(a,b), newer(b,a), a==b holds.
func TestQuickSeqNewerTrichotomy(t *testing.T) {
	f := func(a uint32, delta uint32) bool {
		d := delta % (1 << 30) // keep within half-range
		b := a + d
		switch {
		case d == 0:
			return !SeqNewer(a, b) && !SeqNewer(b, a)
		default:
			return SeqNewer(b, a) && !SeqNewer(a, b)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone always yields an equal-value packet with disjoint bodies.
func TestQuickCloneEquality(t *testing.T) {
	f := func(id uint32, origin, target int8, hops uint8, cost float64) bool {
		p := nilPool.RREQ(RREQBody{
			ID: id, Origin: NodeID(origin), Target: NodeID(target),
			HopCount: int(hops), Cost: cost,
		}, 0, 30)
		q := nilPool.Clone(p)
		if q.RREQ == p.RREQ {
			return false // must not alias
		}
		return *q.RREQ == *p.RREQ && q.Kind == p.Kind && q.Bytes == p.Bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
