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
// the first child), clock at 10 ms.
func TestAuditQueueCatchesCorruption(t *testing.T) {
	const now = 10 * Millisecond
	s := NewSim()
	s.RunUntil(now)
	for _, us := range []Time{10000, 10800, 10850, 10900, 20000, 1000000, 2000000} {
		s.At(us*Microsecond, func() {})
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
	})
}

// TestAuditQueueAllocatesNothing: a clean audit of a populated list must
// not allocate; the error text is only built once something is wrong.
func TestAuditQueueAllocatesNothing(t *testing.T) {
	s := NewSim()
	for i := 0; i < 600; i++ {
		s.Schedule(Time(i)*150*Microsecond, func() {})
	}
	s.Schedule(5*Second, func() {})
	var err error
	if a := testing.AllocsPerRun(100, func() { err = s.AuditQueue() }); a != 0 || err != nil || s.Pending() != 601 {
		t.Fatalf("AuditQueue over %d events: %v allocs per call, err %v; want 601, 0 and nil", s.Pending(), a, err)
	}
}
