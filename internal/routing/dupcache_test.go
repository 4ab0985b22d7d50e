package routing

import (
	"testing"
	"unsafe"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

// checkDupCache compares the kept count with the map oracle's and checks
// the structure behind it (checkDupIndex).
func checkDupCache(t *testing.T, d *DupCache, oracle *mapDupCache, step int) {
	t.Helper()
	got, want := d.Len(), oracle.Len()
	if got != want {
		t.Fatalf("step %d: Len() = %d, the map counts %d", step, got, want)
	}
	checkDupIndex(t, d, step)
}

// checkDupIndex checks that the ring holds exactly the live count — the
// index holds one key per ring entry, so nothing expired is left indexed
// — and that the index finds every live entry.
func checkDupIndex(t *testing.T, d *DupCache, step int) {
	t.Helper()
	if d.index.Len() != d.n {
		t.Fatalf("step %d: index holds %d keys for %d ring entries", step, d.index.Len(), d.n)
	}
	for i := range d.n {
		pos := (d.head + i) & (len(d.ring) - 1)
		if _, ok := d.index.Get(d.ring[pos].rreqKey); !ok {
			t.Fatalf("step %d: live flood %+v at ring position %d is not indexed", step, d.ring[pos], pos)
		}
	}
}

// dupCacheScript interprets data as a program of Seen / clock advance /
// Len / Reset steps over 64 origins × 40 IDs (so the index wraps and its
// probe runs cluster) and checks the cache against the map oracle after
// every step (bar half the clock advances). Every Seen verdict is checked
// against the oracle's too.
func dupCacheScript(t *testing.T, data []byte) {
	sim := des.NewSim()
	horizon := des.Second
	d, oracle := NewDupCache(sim, horizon), newMapDupCache(sim, horizon)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], int(data[i+1])
		switch {
		case op < 160:
			k := int(op)<<8 | arg
			origin, id := pkt.NodeID(k%64), uint32(k/64%40)
			if got, want := d.Seen(origin, id), oracle.Seen(origin, id); got != want {
				t.Fatalf("step %d: Seen(%d,%d) = %v, the map says %v", i/2, origin, id, got, want)
			}
		case op < 220: // 0 to 0.6 horizon; 0 keeps the clock frozen
			sim.RunUntil(sim.Now() + horizon*des.Time(arg%7)/10)
			if arg&8 != 0 {
				// No Len here: the next Seen must pop the expired
				// entries itself.
				continue
			}
		case op < 250:
			// checkDupCache below is the Len step
		default:
			horizon = des.Time(arg%4+1) * des.Second / 2
			d.Reset(horizon)
			oracle.Reset(horizon)
		}
		checkDupCache(t, d, oracle, i/2)
	}
}

// TestDupCacheLenMatchesScan drives 50 random programs through
// dupCacheScript; the oracle's Len is a scan of its map.
func TestDupCacheLenMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := rng.New(seed)
		data := make([]byte, 4000)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		dupCacheScript(t, data)
	}
}

// FuzzDupCacheLen runs the fuzzer's bytes through both dupCacheScript and
// dupDifferentialScript (as is and with the storage moved every step).
func FuzzDupCacheLen(f *testing.F) {
	// Nine floods from origin 0 on a frozen clock (the ring doubles), a
	// tenth, the first nine expire, refill, reset.
	f.Add([]byte{0, 0, 0, 64, 0, 128, 0, 192, 1, 0, 1, 64, 1, 128, 1, 192, 2, 0,
		200, 6, 2, 64, 200, 6, 230, 0, 2, 128, 0, 0, 255, 1, 0, 0, 200, 3, 230, 0})
	// The differential format: forty origins, one flood each 0.06 horizon
	// apart, so about seventeen are live at once, the ring doubles and
	// expiry pops round its end; then Len, reset and one more flood.
	var seed []byte
	for o := byte(0); o < 40; o++ {
		seed = append(seed, 2*o, o, o, 0, 200, 0, 6, 0)
	}
	f.Add(append(seed, 240, 0, 0, 0, 255, 0, 2, 0, 0, 7, 7, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dupCacheScript(t, data)
		dupDifferentialScript(t, data, false)
		dupDifferentialScript(t, data, true)
	})
}

// TestDupCacheFrozenClockOverflow: with the clock never advancing nothing
// ever expires, so the ring doubles past every capacity. Each flood must
// stay remembered and counted, and the ring must hold exactly the live
// set.
func TestDupCacheFrozenClockOverflow(t *testing.T) {
	const origins, floods = 5, 2000
	d := NewDupCache(des.NewSim(), des.Second)
	for i := 0; i < floods; i++ {
		if d.Seen(pkt.NodeID(i%origins), uint32(i)) {
			t.Fatalf("insert %d: fresh flood reported seen", i)
		}
	}
	for i := 0; i < floods; i++ {
		if !d.Seen(pkt.NodeID(i%origins), uint32(i)) {
			t.Fatalf("flood %d forgotten on a frozen clock", i)
		}
	}
	if d.Len() != floods {
		t.Fatalf("Len() = %d, want every one of %d floods live", d.Len(), floods)
	}
	checkDupIndex(t, d, floods)
}

// TestDupEntrySize: every probe compares a ring entry's key.
func TestDupEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(dupEntry{}); s != 16 {
		t.Fatalf("dupEntry is %d bytes, want 16", s)
	}
}

// TestDupCacheWarmReuseAllocatesNothing: the ring and index keep their
// storage across Reset. After one pass with 40 floods live at once, a
// pass that reaches the same peak from other origins, several floods
// each, allocates nothing.
func TestDupCacheWarmReuseAllocatesNothing(t *testing.T) {
	const peak = 40
	d := NewDupCache(des.NewSim(), des.Second)
	pass := func(first, perOrigin int) {
		for i := 0; i < peak; i++ {
			d.Seen(pkt.NodeID(first+i/perOrigin), uint32(i))
		}
		if d.Len() != peak {
			t.Fatalf("Len() = %d, want %d", d.Len(), peak)
		}
		d.Reset(des.Second)
	}
	pass(0, 1)
	capacity, first := len(d.ring), 0
	if a := testing.AllocsPerRun(5, func() {
		first += peak
		pass(first, 5)
	}); a != 0 {
		t.Fatalf("a warm pass to the same peak from other origins allocated %.0f times, want 0", a)
	}
	if len(d.ring) != capacity {
		t.Fatalf("ring capacity %d → %d for the same peak", capacity, len(d.ring))
	}
}

// TestDupCacheSizedByLiveFloods: 10 000 origins send one flood each, the
// clock stepping an eighth of the horizon per flood, so at most eight are
// live at once. The cache must stay at its minimum capacity — it is sized
// by the floods live, not by the origins heard — and still remember every
// live flood: after the first thousand origins, the other nine thousand
// allocate nothing.
func TestDupCacheSizedByLiveFloods(t *testing.T) {
	const origins, horizon = 10000, des.Second
	sim := des.NewSim()
	d := NewDupCache(sim, horizon)
	o := 0
	thousand := func() {
		for end := o + 1000; o < end; o++ {
			sim.RunUntil(des.Time(o) * horizon / 8)
			if d.Seen(pkt.NodeID(o), 1) {
				t.Fatalf("origin %d: fresh flood reported seen", o)
			}
			if n := d.Len(); n > 8 {
				t.Fatalf("origin %d: %d floods live, the schedule allows 8", o, n)
			}
			if o >= 7 && !d.Seen(pkt.NodeID(o-7), 1) {
				t.Fatalf("origin %d: flood from origin %d forgotten while live", o, o-7)
			}
		}
	}
	thousand()
	if a := testing.AllocsPerRun(origins/1000-2, thousand); a != 0 || o != origins {
		t.Fatalf("%d origins: %v allocations per thousand after the first, want 0", o, a)
	}
	if len(d.ring) > 16 {
		t.Fatalf("%d origins with at most 8 floods live: ring %d, want ≤ 16", origins, len(d.ring))
	}
}

// TestDupCacheProbeRunsWrap drives the index where deletion is hardest:
// at minimum capacity, with keys chosen by search so that four share the
// last slot of a 16-slot index as home (their probe run wraps the index
// end; they share the last slot of an 8-slot one too) and the rest have
// homes on both sides of the wrap. Random orders of insertion, with
// re-insertion after expiry, make expiry order differ from probe order,
// so backward shift moves entries across the wrap. After every step the
// cache must agree with the map oracle on every key and keep every live
// entry reachable.
func TestDupCacheProbeRunsWrap(t *testing.T) {
	const horizon = des.Second
	slots := 2 * dupMinCap
	// home is recycle.Index's first probe slot for k in a 16-slot table:
	// the top four bits of k's Fibonacci hash.
	home := func(k rreqKey) int { return int(k.Hash() * 0x9e3779b97f4a7c15 >> 60) }
	want := map[int]int{slots - 1: 4, slots - 2: 1, 0: 2, 1: 1} // home slot → keys
	var keys []rreqKey
	for k := (rreqKey{}); len(keys) < dupMinCap; k.id++ {
		if k.id == 1000 {
			k.origin, k.id = k.origin+1, 0
		}
		if h := home(k); want[h] > 0 {
			want[h]--
			keys = append(keys, k)
		}
	}
	for trial := uint64(1); trial <= 200; trial++ {
		r := rng.New(trial)
		sim := des.NewSim()
		d, oracle := NewDupCache(sim, horizon), newMapDupCache(sim, horizon)
		for step := 0; step < 60; step++ {
			sim.RunUntil(sim.Now() + des.Time(r.Intn(int(horizon/4))))
			k := keys[r.Intn(len(keys))]
			if g, w := d.Seen(k.origin, k.id), oracle.Seen(k.origin, k.id); g != w {
				t.Fatalf("trial %d step %d: Seen(%v) = %v, the map says %v", trial, step, k, g, w)
			}
			for _, k := range keys {
				if exp, ok := oracle.seen[k]; ok && exp > sim.Now() && !d.Seen(k.origin, k.id) {
					t.Fatalf("trial %d step %d: live flood %v forgotten", trial, step, k)
				}
			}
			checkDupCache(t, d, oracle, step)
			if len(d.ring) != dupMinCap {
				t.Fatalf("trial %d step %d: ring grew to %d with at most %d keys live", trial, step, len(d.ring), len(keys))
			}
		}
	}
}
