package routing

import (
	"testing"
	"unsafe"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

// scanLen is the oracle for DupCache.Len: the exhaustive count of ring
// entries a lookup would still report as seen.
func scanLen(d *DupCache) int {
	now := d.sim.Now()
	n := 0
	for i := range d.rings {
		for j := range d.rings[i].ent {
			if d.rings[i].ent[j].exp > now {
				n++
			}
		}
	}
	return n
}

// ringOf returns origin's ring through the index, or nil before the first
// flood from there.
func ringOf(d *DupCache, origin pkt.NodeID) *dupRing {
	if int(origin) >= len(d.idx) || d.idx[origin] == 0 {
		return nil
	}
	return &d.rings[d.idx[origin]-1]
}

// checkDupCache compares the kept count with the oracle and bounds the
// expiry log by the live count.
func checkDupCache(t *testing.T, d *DupCache, step int) {
	t.Helper()
	got, want := d.Len(), scanLen(d)
	if got != want {
		t.Fatalf("step %d: Len() = %d, exhaustive scan counts %d", step, got, want)
	}
	if len(d.log) > 2*want+64 {
		t.Fatalf("step %d: expiry log holds %d records for %d live entries", step, len(d.log), want)
	}
}

// dupCacheScript interprets data as a program of Seen / clock advance /
// Len / Reset steps over 3 origins × 40 IDs (so rings overflow) and
// checks the cache against the oracle after every step (bar half the
// clock advances). A Seen verdict is checked too: it must be "duplicate"
// exactly when the rings hold the flood live.
func dupCacheScript(t *testing.T, data []byte) {
	sim := des.NewSim()
	horizon := des.Second
	d := NewDupCache(sim, horizon)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], int(data[i+1])
		switch {
		case op < 160:
			origin, id := pkt.NodeID(arg%3), uint32(arg/3%40)
			live := false
			if r := ringOf(d, origin); r != nil {
				for _, e := range r.ent {
					live = live || e.exp > sim.Now() && e.id == id
				}
			}
			if got := d.Seen(origin, id); got != live {
				t.Fatalf("step %d: Seen(%d,%d) = %v, rings say %v", i/2, origin, id, got, live)
			}
		case op < 220: // 0 to 0.6 horizon; 0 keeps the clock frozen
			sim.RunUntil(sim.Now() + horizon*des.Time(arg%7)/10)
			if arg&8 != 0 {
				// No Len here: the next Seen must settle the expired
				// records itself before it reuses their slots.
				continue
			}
		case op < 250:
			// checkDupCache below is the Len step
		default:
			horizon = des.Time(arg%4+1) * des.Second / 2
			d.Reset(horizon)
		}
		checkDupCache(t, d, i/2)
	}
}

// TestDupCacheLenMatchesScan drives 50 random programs through
// dupCacheScript.
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
	// Fill one ring past overflow, let it half expire, refill, reset.
	f.Add([]byte{0, 0, 0, 3, 0, 6, 0, 9, 0, 12, 0, 15, 0, 18, 0, 21, 0, 24, 0, 27,
		200, 6, 0, 30, 200, 6, 230, 0, 0, 33, 0, 0, 255, 1, 0, 0, 200, 3, 230, 0})
	f.Fuzz(func(t *testing.T, data []byte) { dupCacheScript(t, data) })
}

// TestDupCacheFrozenClockOverflow: with the clock never advancing nothing
// ever expires, so every insertion past the first eight per origin
// overwrites a live slot and strands its victim's log record. The count
// must stay at the ring capacity and the log must stay bounded.
func TestDupCacheFrozenClockOverflow(t *testing.T) {
	const origins = 5
	d := NewDupCache(des.NewSim(), des.Second)
	for i := 0; i < 100000; i++ {
		if d.Seen(pkt.NodeID(i%origins), uint32(i)) {
			t.Fatalf("insert %d: fresh flood reported seen", i)
		}
		if len(d.log) > 2*origins*dupRingSize+64 {
			t.Fatalf("insert %d: expiry log grew to %d records", i, len(d.log))
		}
	}
	checkDupCache(t, d, 100000)
	if d.Len() != origins*dupRingSize {
		t.Fatalf("Len() = %d, want every slot of %d origins live", d.Len(), origins)
	}
}

// TestDupEntrySize: the log stamp must keep fitting in dupEntry's padding —
// the ring scan in Seen is on the flood hot path.
func TestDupEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(dupEntry{}); s != 16 {
		t.Fatalf("dupEntry is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(dupRecord{}); s != 8 {
		t.Fatalf("dupRecord is %d bytes, want 8", s)
	}
	// The ring's origin (Reset's way back to the index) rides in the
	// padding after next.
	if s := unsafe.Sizeof(dupRing{}); s != dupRingSize*16+8 {
		t.Fatalf("dupRing is %d bytes, want %d", s, dupRingSize*16+8)
	}
}
