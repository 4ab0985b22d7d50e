package routing

import (
	"testing"
	"unsafe"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

// checkDupCache compares the kept count with the map oracle's and bounds
// the expiry FIFO by the live count.
func checkDupCache(t *testing.T, d *DupCache, oracle *mapDupCache, step int) {
	t.Helper()
	got, want := d.Len(), oracle.Len()
	if got != want {
		t.Fatalf("step %d: Len() = %d, the map counts %d", step, got, want)
	}
	if len(d.exps) > 2*want {
		t.Fatalf("step %d: expiry FIFO holds %d times for %d live entries", step, len(d.exps), want)
	}
}

// dupCacheScript interprets data as a program of Seen / clock advance /
// Len / Reset steps over 3 origins × 40 IDs (so rings spill) and checks
// the cache against the map oracle after every step (bar half the clock
// advances). Every Seen verdict is checked against the oracle's too.
func dupCacheScript(t *testing.T, data []byte) {
	sim := des.NewSim()
	horizon := des.Second
	d, oracle := NewDupCache(sim, horizon), newMapDupCache(sim, horizon)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], int(data[i+1])
		switch {
		case op < 160:
			origin, id := pkt.NodeID(arg%3), uint32(arg/3%40)
			if got, want := d.Seen(origin, id), oracle.Seen(origin, id); got != want {
				t.Fatalf("step %d: Seen(%d,%d) = %v, the map says %v", i/2, origin, id, got, want)
			}
		case op < 220: // 0 to 0.6 horizon; 0 keeps the clock frozen
			sim.RunUntil(sim.Now() + horizon*des.Time(arg%7)/10)
			if arg&8 != 0 {
				// No Len here: the next Seen must pop the expired
				// times itself.
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

func FuzzDupCacheLen(f *testing.F) {
	// Fill one ring past eight, let it half expire, refill, reset.
	f.Add([]byte{0, 0, 0, 3, 0, 6, 0, 9, 0, 12, 0, 15, 0, 18, 0, 21, 0, 24, 0, 27,
		200, 6, 0, 30, 200, 6, 230, 0, 0, 33, 0, 0, 255, 1, 0, 0, 200, 3, 230, 0})
	f.Fuzz(func(t *testing.T, data []byte) { dupCacheScript(t, data) })
}

// TestDupCacheFrozenClockOverflow: with the clock never advancing nothing
// ever expires, so every flood past the eighth per origin spills. Each
// must stay remembered and counted, and the FIFO must hold exactly the
// live set. (Kept small: Seen scans an origin's live set.)
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
	if d.Len() != floods || len(d.exps) != floods {
		t.Fatalf("Len() = %d with %d expiry times, want every one of %d floods live", d.Len(), len(d.exps), floods)
	}
}

// TestDupEntrySize: the ring scan in Seen is on the flood hot path.
func TestDupEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(dupEntry{}); s != 16 {
		t.Fatalf("dupEntry is %d bytes, want 16", s)
	}
}

// TestDupCacheSpillBuffersSurviveReset: ring positions follow each run's
// first-contact order, so a warm cache spills at positions that never
// spilled before. The buffers a Reset freed must serve those first
// spills: after one pass that spills at positions 8–11, passes that spill
// the same count at positions 0–3 and then 4–7 allocate nothing.
func TestDupCacheSpillBuffersSurviveReset(t *testing.T) {
	const origins, spilled = 12, 4
	d := NewDupCache(des.NewSim(), des.Second)
	// pass contacts every origin once, in order, so origin p takes ring
	// position p, then gives origins first..first+spilled-1 nine live
	// floods each (the clock is frozen), which spills their rings.
	pass := func(first int) {
		for o := 0; o < origins; o++ {
			d.Seen(pkt.NodeID(o), 0)
		}
		for o := first; o < first+spilled; o++ {
			for id := uint32(1); id <= dupRingSize; id++ {
				d.Seen(pkt.NodeID(o), id)
			}
		}
		if d.Len() != origins+spilled*dupRingSize {
			t.Fatalf("Len() = %d, want %d", d.Len(), origins+spilled*dupRingSize)
		}
		d.Reset(des.Second)
	}
	first := origins - spilled
	pass(first)
	if a := testing.AllocsPerRun(1, func() {
		first = (first + spilled) % origins
		pass(first)
	}); a != 0 {
		t.Fatalf("spilling at new ring positions after a Reset allocated %.0f times, want 0", a)
	}
}
