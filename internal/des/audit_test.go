package des

import (
	"fmt"
	"strings"
	"testing"
)

// corruption is one way to break the event list: mutate breaks it and
// returns the violation AuditQueue must report (matched in full when
// exact, else as a substring) plus the undo.
type corruption struct {
	name   string
	mutate func() (want string, exact bool, undo func())
}

func runCorruptions(t *testing.T, s *Sim, cs []corruption) {
	t.Helper()
	if err := s.AuditQueue(); err != nil {
		t.Fatalf("before any corruption: %v", err)
	}
	for _, c := range cs {
		want, exact, undo := c.mutate()
		err := s.AuditQueue()
		switch {
		case err == nil:
			t.Errorf("%s: not reported", c.name)
		case exact && err.Error() != want:
			t.Errorf("%s:\n got %q\nwant %q", c.name, err, want)
		case !strings.Contains(err.Error(), want):
			t.Errorf("%s: got %q, want it to mention %q", c.name, err, want)
		}
		undo()
		if err := s.AuditQueue(); err != nil {
			t.Fatalf("%s: audit still failing after undo: %v", c.name, err)
		}
	}
}

// TestAuditQueueCatchesCorruption shows each des/queue check biting on a
// live heap of seven events (root, four children, two grandchildren under
// the first child) and two lanes, clock at 10 ms. The 1 ms lane holds four
// events pushed 100 µs apart, the second cancelled (a stale slot); the
// 2 ms lane holds two.
func TestAuditQueueCatchesCorruption(t *testing.T) {
	const now = 10 * Millisecond
	s := NewSim()
	fh := &funcHandler{fn: func() {}}
	fast, slow := s.Lane(Millisecond), s.Lane(2*Millisecond)
	var evs []Event
	for k := Time(1); k <= 4; k++ {
		s.RunUntil(now - Millisecond + k*100*Microsecond)
		evs = append(evs, fast.Call(fh, 0, 0))
		if k <= 2 {
			slow.Call(fh, 0, 0)
		}
	}
	s.RunUntil(now)
	evs[1].Cancel()
	for _, us := range []Time{10000, 10800, 10850, 10900, 20000, 1000000, 2000000} {
		s.At(us*Microsecond, func() {})
	}
	l, m := &s.lanes[fast.i], &s.lanes[slow.i]
	live := l.slot // slot 1 is the stale one
	if s.Pending() != 12 || l.n != 4 || l.live != 3 {
		t.Fatalf("setup: pending %d, fast lane %d slots %d live; want 12, 4, 3", s.Pending(), l.n, l.live)
	}
	h := s.heap
	swap := func(i, j int) func() {
		h[i], h[j] = h[j], h[i]
		h[i].n.idx, h[j].n.idx = int32(i), int32(j)
		return func() {
			h[i], h[j] = h[j], h[i]
			h[i].n.idx, h[j].n.idx = int32(i), int32(j)
		}
	}
	runCorruptions(t, s, []corruption{
		{"root swapped with its last grandchild", func() (string, bool, func()) {
			undo := swap(0, 6)
			return fmt.Sprintf("des: audit: heap order violated at index 1 (t=%v seq=%d under t=%v seq=%d)",
				h[1].at, h[1].seq, h[0].at, h[0].seq), true, undo
		}},
		{"child ordered before its parent by sequence alone", func() (string, bool, func()) {
			at, nat := h[5].at, h[5].n.at
			h[5].at, h[5].n.at = h[1].at, h[1].at // same instant as its parent…
			undo := swap(1, 5)                    // …and above it with the later seq
			return "heap order violated at index 5", false, func() {
				undo()
				h[5].at, h[5].n.at = at, nat
			}
		}},
		{"inline key drifted from the node's", func() (string, bool, func()) {
			h[4].at++
			return fmt.Sprintf("heap entry 4 keyed (t=%v seq=%d) but its node says (t=%v seq=%d)",
				h[4].at, h[4].seq, h[4].n.at, h[4].n.seq), false, func() { h[4].at-- }
		}},
		{"inline sequence drifted from the node's", func() (string, bool, func()) {
			h[3].n.seq += 100
			return "heap entry 3 keyed", false, func() { h[3].n.seq -= 100 }
		}},
		{"node records a stale position", func() (string, bool, func()) {
			h[6].n.idx = 2
			return "des: audit: node at heap position 6 records position 2", true, func() { h[6].n.idx = 6 }
		}},
		{"event planted before the clock", func() (string, bool, func()) {
			at := h[0].at
			h[0].at, h[0].n.at = now-10*Microsecond, now-10*Microsecond
			return fmt.Sprintf("des: audit: event at t=%v precedes clock t=%v", h[0].at, now), true,
				func() { h[0].at, h[0].n.at = at, at }
		}},
		{"live slots swapped", func() (string, bool, func()) {
			a, b := live(2), live(3)
			*a, *b = *b, *a
			return "lane 0.001000s order violated at slot 3", false, func() { *a, *b = *b, *a }
		}},
		{"lane event planted before the clock", func() (string, bool, func()) {
			sl := live(2)
			at := sl.at
			sl.at, sl.n.at = now-10*Microsecond, now-10*Microsecond
			return fmt.Sprintf("des: audit: lane 0.001000s event at t=%v precedes clock t=%v", sl.at, now), true,
				func() { sl.at, sl.n.at = at, at }
		}},
		{"lane event further ahead than its delay", func() (string, bool, func()) {
			sl := live(3)
			sl.at += Millisecond
			sl.n.at += Millisecond
			return "lies beyond now+delay", false, func() { sl.at -= Millisecond; sl.n.at -= Millisecond }
		}},
		{"slot key drifted from its node's", func() (string, bool, func()) {
			live(3).n.seq += 100
			return "lane 0.001000s slot 3 keyed", false, func() { live(3).n.seq -= 100 }
		}},
		{"node points at the wrong lane", func() (string, bool, func()) {
			n := live(0).n
			n.idx = int32(-1 - slow.i)
			return fmt.Sprintf("des: audit: node on lane %d records back-reference %d", fast.i, n.idx), true,
				func() { n.idx = int32(-1 - fast.i) }
		}},
		{"node recorded as a heap entry", func() (string, bool, func()) {
			n := m.slot(1).n
			n.idx = 0
			return "records back-reference 0", false, func() { n.idx = int32(-1 - slow.i) }
		}},
		{"live count disagrees with the slots", func() (string, bool, func()) {
			l.live++
			return "des: audit: lane 0.001000s counts 4 live events but holds 3", true, func() { l.live-- }
		}},
		{"Pending counts more than the lanes hold", func() (string, bool, func()) {
			s.laneLive++
			return "des: audit: lanes hold 5 live events but Pending counts 6 beside the heap", true, func() { s.laneLive-- }
		}},
		{"cached head key stale", func() (string, bool, func()) {
			s.laneHead[fast.i].seq++
			return "lane 0.001000s head cached as", false, func() { s.laneHead[fast.i].seq-- }
		}},
		{"non-empty lane missing from the mask", func() (string, bool, func()) {
			s.laneMask &^= 1 << uint(slow.i)
			return "des: audit: lane 0.002000s holds 2 slots, 2 live, mask bit 0", true, func() { s.laneMask |= 1 << uint(slow.i) }
		}},
		{"cached earliest lane is not earliest", func() (string, bool, func()) {
			best, scan := s.laneMin, s.laneScan
			s.laneMin, s.laneScan = int(slow.i), false
			return "des: audit: cached earliest lane 0.002000s", false, func() { s.laneMin, s.laneScan = best, scan }
		}},
	})
	// Undone, the list is whole again: it runs out in order.
	s.Run()
	if s.Pending() != 0 || s.Executed() != 12 {
		t.Fatalf("after the run: pending %d, executed %d; want 0 and 12", s.Pending(), s.Executed())
	}
}

// TestAuditQueueAllocatesNothing: a clean audit of a populated list must
// not allocate; the error text is only built once something is wrong.
func TestAuditQueueAllocatesNothing(t *testing.T) {
	s := NewSim()
	for i := 0; i < 600; i++ {
		s.Schedule(Time(i)*150*Microsecond, func() {})
	}
	s.Schedule(5*Second, func() {})
	// Lanes populated, stale slots included.
	h := &funcHandler{fn: func() {}}
	for d := Time(1); d <= 4; d++ {
		l := s.Lane(d * 100 * Microsecond)
		for i := 0; i < 50; i++ {
			ev := l.Call(h, 0, 0)
			if i%5 == 1 {
				ev.Cancel()
			}
		}
	}
	var err error
	if a := testing.AllocsPerRun(100, func() { err = s.AuditQueue() }); a != 0 || err != nil || s.Pending() != 761 {
		t.Fatalf("AuditQueue over %d events: %v allocs per call, err %v; want 761, 0 and nil", s.Pending(), a, err)
	}
}
