package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/recycle"
	"clnlr/internal/rng"
)

// Differential tests of the index + slab structures against the dense
// ones they replaced (oracle_test.go). Each script interprets its bytes as
// a program, four bytes a step, runs it on both and compares every return
// value and, after every step, the whole visible state. With move set the
// slab under test is moved to a fresh, exactly full array before every
// step and the old array is poisoned: every insert then reallocates too
// (append finds no spare capacity), so code that kept a slab pointer
// across an insert reads poison or writes into a dead array, and the
// comparison fails.

// randomProgram returns n seeded random bytes.
func randomProgram(seed uint64, n int) []byte {
	r := rng.New(seed)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// scriptID maps a byte to a node ID: mostly a small dense range so that
// entries collide, now and then one far beyond it (index growth) or the
// broadcast ID (rejected by every structure).
func scriptID(b byte) pkt.NodeID {
	switch {
	case b >= 250:
		return pkt.Broadcast
	case b >= 240:
		return pkt.NodeID(40 + int(b)%7)
	}
	return pkt.NodeID(b % 12)
}

func moveTableSlab(t *Table) {
	old := t.entries
	t.entries = append(make([]Route, 0, len(old)), old...)
	for i := range old {
		old[i] = Route{Dst: -7, NextHop: -7, HopCount: -7, Seq: 0xdead, SeqValid: true, Expires: math.MaxInt64, Valid: true}
	}
}

func routesOf(each func(func(*Route))) []Route {
	var out []Route
	each(func(r *Route) { out = append(out, *r) })
	return out
}

func tableRoutes(t *Table) []Route {
	var out []Route
	t.Each(func(r Route) { out = append(out, r) })
	return out
}

func sameRoute(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// get and invalidate give Table's (Route, ok) answers the oracle's
// pointer shape (nil for none).
func get(t *Table, dst pkt.NodeID) *Route { return ptr(t.Get(dst)) }

func invalidate(t *Table, dst pkt.NodeID) *Route { return ptr(t.Invalidate(dst)) }

func ptr(r Route, ok bool) *Route {
	if !ok {
		return nil
	}
	return &r
}

// tableScript drives Update, Lookup, Get, Refresh, Invalidate,
// InvalidateFrom, InvalidateVia, Each, Len, Reset and the clock, and holds
// Writes to moving on every change but a live route's lifetime extension.
func tableScript(t *testing.T, data []byte, move bool) {
	sim := des.NewSim()
	got, want := NewTable(sim), newDenseTable(sim)
	for i := 0; i+3 < len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		if move {
			moveTableSlab(got)
		}
		dst := scriptID(a)
		step := i / 4
		before, writes, then := tableRoutes(got), got.Writes(), sim.Now()
		switch {
		case op < 110:
			cand := Route{
				Dst:      dst,
				NextHop:  pkt.NodeID(b % 5),
				HopCount: int(c%4) + 1,
				Cost:     float64(c>>2%7) / 2,
				Seq:      uint32(b >> 3 % 6),
				SeqValid: c&0x80 == 0,
				Expires:  sim.Now() + des.Time(b>>5)*300*des.Millisecond,
				Valid:    c&0x60 != 0,
			}
			if g, w := got.Update(cand), want.Update(cand); g != w {
				t.Fatalf("step %d: Update(%+v) = %v, dense table says %v", step, cand, g, w)
			}
		case op < 140:
			if g, w := got.Lookup(dst), want.Lookup(dst); !sameRoute(g, w) {
				t.Fatalf("step %d: Lookup(%d) = %+v, dense table says %+v", step, dst, g, w)
			}
		case op < 160:
			if g, w := get(got, dst), want.Get(dst); !sameRoute(g, w) {
				t.Fatalf("step %d: Get(%d) = %+v, dense table says %+v", step, dst, g, w)
			}
		case op < 180:
			life := des.Time(b%8) * 200 * des.Millisecond
			got.Refresh(dst, life)
			want.Refresh(dst, life)
		case op < 195:
			if g, w := invalidate(got, dst), want.Invalidate(dst); !sameRoute(g, w) {
				t.Fatalf("step %d: Invalidate(%d) = %+v, dense table says %+v", step, dst, g, w)
			}
		case op < 203:
			from, seq := pkt.NodeID(b%5), uint32(c%8)
			gs, gok := got.InvalidateFrom(dst, from, seq)
			if ws, wok := want.InvalidateFrom(dst, from, seq); gs != ws || gok != wok {
				t.Fatalf("step %d: InvalidateFrom(%d, %d, %d) = %d, %v, dense table says %d, %v", step, dst, from, seq, gs, gok, ws, wok)
			}
		case op < 215:
			via := pkt.NodeID(b % 5)
			if g, w := got.InvalidateVia(via, nil), want.InvalidateVia(via); !slices.Equal(g, w) {
				t.Fatalf("step %d: InvalidateVia(%d) = %v, dense table says %v", step, via, g, w)
			}
		case op < 250:
			sim.RunUntil(sim.Now() + des.Time(b%8)*100*des.Millisecond)
		default:
			got.Reset()
			want.Reset()
		}
		// Each in destination order, with Len, is the whole visible state.
		if g, w := tableRoutes(got), routesOf(want.Each); !slices.Equal(g, w) || got.Len() != want.Len() {
			t.Fatalf("step %d (op %d): tables differ\n got %d %+v\nwant %d %+v", step, op, got.Len(), g, want.Len(), w)
		}
		if got.Writes() == writes {
			if err := onlyExtended(before, tableRoutes(got), then); err != "" {
				t.Fatalf("step %d (op %d): Writes did not move, but %s", step, op, err)
			}
		}
	}
}

// onlyExtended reports how after differs from before by more than the
// lifetime extension of routes live at then — the one table write that
// may leave Writes where it was — or "" if it does not.
func onlyExtended(before, after []Route, then des.Time) string {
	if len(before) != len(after) {
		return fmt.Sprintf("the table went from %d to %d entries", len(before), len(after))
	}
	for k, r := range after {
		was := before[k]
		if r == was {
			continue
		}
		ext := was
		ext.Expires = r.Expires
		if r != ext || !was.Valid || was.Expires <= then || r.Expires < was.Expires {
			return fmt.Sprintf("route %+v became %+v", was, r)
		}
	}
	return ""
}

func TestTableMatchesDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		data := randomProgram(seed, 4000)
		tableScript(t, data, false)
		tableScript(t, data, true)
	}
}

func FuzzTableDifferential(f *testing.F) {
	// Install, better copy, expire, invalidate via, far ID, reset, reinstall.
	f.Add([]byte{0, 3, 41, 1, 0, 3, 49, 0, 230, 0, 7, 0, 120, 3, 0, 0, 200, 0, 1, 0,
		0, 245, 2, 2, 255, 0, 0, 0, 0, 3, 9, 1, 150, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tableScript(t, data, false)
		tableScript(t, data, true)
	})
}

// moveDupSlab moves the cache's ring and index to fresh storage and
// poisons the old: an entry read through the old ring claims a flood
// live forever, and the old index holds no key.
func moveDupSlab(d *DupCache) {
	oldRing, oldIndex := d.ring, d.index
	d.ring, d.index = slices.Clone(oldRing), recycle.Index[rreqKey, struct{}]{}
	oldIndex.Each(func(k rreqKey, _ struct{}) { d.index.Put(k, struct{}{}) })
	for i := range oldRing {
		oldRing[i] = dupEntry{rreqKey{-7, 0xdead}, math.MaxInt64}
	}
	oldIndex.Clear()
}

// dupOrigin maps a script byte to one of 64 origins, so live floods wrap
// the index and cluster in it, or for the top few values to the broadcast
// ID, which Seen never records.
func dupOrigin(b byte) pkt.NodeID {
	if b >= 250 {
		return pkt.Broadcast
	}
	return pkt.NodeID(b % 64)
}

// dupDifferentialScript drives Seen, Len, Reset and the clock, against
// the map oracle, with floods close enough together that tens are live at
// once; a clock step of 0 keeps the clock frozen, where nothing expires.
func dupDifferentialScript(t *testing.T, data []byte, move bool) {
	sim := des.NewSim()
	horizon := des.Second
	got, want := NewDupCache(sim, horizon), newMapDupCache(sim, horizon)
	for i := 0; i+3 < len(data); i += 4 {
		op, a, b := data[i], data[i+1], data[i+2]
		if move {
			moveDupSlab(got)
		}
		step := i / 4
		switch {
		case op < 170:
			origin, id := dupOrigin(a), uint32(b%40)
			if g, w := got.Seen(origin, id), want.Seen(origin, id); g != w {
				t.Fatalf("step %d: Seen(%d,%d) = %v, the map says %v", step, origin, id, g, w)
			}
			if op&1 != 0 {
				continue // no Len: the next Seen pops the expired floods itself
			}
		case op < 235: // steps of up to 0.06 horizon, so floods pile up
			sim.RunUntil(sim.Now() + horizon*des.Time(b%7)/100)
		case op < 250:
			// the Len below is the step
		default:
			horizon = des.Time(b%4+1) * des.Second / 2
			got.Reset(horizon)
			want.Reset(horizon)
		}
		if g, w := got.Len(), want.Len(); g != w {
			t.Fatalf("step %d: Len() = %d, the map says %d", step, g, w)
		}
		checkDupIndex(t, got, step)
	}
}

// TestDupCacheMatchesDenseOracle checks DupCache against the map oracle
// (newMapDupCache), with and without its slabs moved between steps; the
// name is from when the oracle was a dense copy of the overwriting ring.
func TestDupCacheMatchesDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		data := randomProgram(seed, 8000)
		dupDifferentialScript(t, data, false)
		dupDifferentialScript(t, data, true)
	}
}

func moveNeighborSlab(nt *NeighborTable) {
	oldIDs, oldInfo := nt.ids, nt.info
	nt.ids = append(make([]pkt.NodeID, 0, len(oldIDs)), oldIDs...)
	nt.info = append(make([]neighborInfo, 0, len(oldInfo)), oldInfo...)
	for i := range oldInfo {
		oldIDs[i] = -7
		oldInfo[i] = neighborInfo{load: 1e9, lastHeard: math.MaxInt64 / 2}
	}
	oldHops := nt.hops
	nt.hops = make([][]pkt.NeighborLoad, len(oldHops))
	for i, h := range oldHops {
		nt.hops[i] = append(make([]pkt.NeighborLoad, 0, cap(h)), h...)
		for j := range h {
			h[j] = pkt.NeighborLoad{ID: -7, Load: 1e9}
		}
	}
}

// neighborScript drives Update (with nil, empty and filled two-hop
// payloads), Remove, Count, Loads, NeighborhoodLoad, Reset and the clock.
func neighborScript(t *testing.T, data []byte, move bool) {
	sim := des.NewSim()
	maxAge := des.Second
	got, want := NewNeighborTable(sim, maxAge), newDenseNeighborTable(sim, maxAge)
	for i := 0; i+3 < len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		if move {
			moveNeighborSlab(got)
		}
		id := scriptID(a)
		step := i / 4
		switch {
		case op < 120:
			var twoHop []pkt.NeighborLoad
			if c&3 != 0 { // 0: nil payload keeps what is stored; 1: empty clears it
				twoHop = make([]pkt.NeighborLoad, 0, 3)
				for k := byte(0); k < c&3-1; k++ {
					twoHop = append(twoHop, pkt.NeighborLoad{ID: pkt.NodeID((c>>2 + k) % 12), Load: float64(c>>4+k) / 20})
				}
			}
			load := float64(b) / 255
			got.Update(id, load, twoHop)
			want.Update(id, load, twoHop)
		case op < 160:
			got.Remove(id)
			want.Remove(id)
		case op < 180:
			if g, w := got.Loads(nil), want.Loads(); !slices.Equal(g, w) {
				t.Fatalf("step %d: Loads() = %v, dense table says %v", step, g, w)
			}
		case op < 235:
			sim.RunUntil(sim.Now() + maxAge*des.Time(b%7)/5)
		default:
			maxAge = des.Time(b%4+1) * des.Second / 2
			got.Reset(maxAge)
			want.Reset(maxAge)
		}
		if g, w := got.Count(), want.Count(); g != w {
			t.Fatalf("step %d: Count() = %d, dense table says %d", step, g, w)
		}
		self, own := pkt.NodeID(c%12), float64(c)/255
		for _, twoHop := range []bool{false, true} {
			g, w := got.NeighborhoodLoad(self, own, twoHop), want.NeighborhoodLoad(self, own, twoHop)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: NeighborhoodLoad(%d,%v,%v) = %v, dense table says %v", step, self, own, twoHop, g, w)
			}
		}
	}
}

func TestNeighborTableMatchesDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		data := randomProgram(seed, 4000)
		neighborScript(t, data, false)
		neighborScript(t, data, true)
	}
}

// TestResetTouchesOnlyWhatWasUsed: Reset walks the slab, not the index, so
// an untouched structure resets without per-ID work however large the
// network it was sized for — and a used one leaves the index all zero.
// The duplicate cache has no ID index for Preallocate to size: its index
// is sized by the live floods.
func TestResetTouchesOnlyWhatWasUsed(t *testing.T) {
	sim := des.NewSim()
	c := bareCore(sim, 0)
	c.Preallocate(1 << 20)
	if n := testing.AllocsPerRun(10, func() {
		c.table.Reset()
		c.dup.Reset(des.Second)
		c.nbrs.Reset(des.Second)
	}); n != 0 {
		t.Errorf("Reset of untouched structures allocates %v times", n)
	}
	if len(c.table.entries)+len(c.nbrs.info) != 0 || cap(c.table.entries)+cap(c.nbrs.info) != 0 {
		t.Error("Preallocate sized a slab; it must size the indices only")
	}
	if len(c.dup.ring) != dupMinCap {
		t.Error("Preallocate sized the duplicate cache; it has no ID index")
	}
	for _, id := range []pkt.NodeID{5, 900000, 17} {
		c.table.Update(Route{Dst: id, NextHop: 1, Valid: true, Expires: des.Second})
		c.dup.Seen(id, 1)
		c.nbrs.Update(id, 0.5, nil)
	}
	c.table.Reset()
	c.dup.Reset(des.Second)
	c.nbrs.Reset(des.Second)
	for name, idx := range map[string][]int32{"table": c.table.idx, "nbrs": c.nbrs.pos} {
		if slices.ContainsFunc(idx, func(s int32) bool { return s != 0 }) {
			t.Errorf("%s: Reset left an index entry behind", name)
		}
	}
	if c.table.Len() != 0 || c.dup.Len() != 0 || c.nbrs.Count() != 0 {
		t.Error("Reset left entries behind")
	}
	if c.dup.Seen(900000, 1) {
		t.Error("dup: Reset left a flood indexed")
	}
}
