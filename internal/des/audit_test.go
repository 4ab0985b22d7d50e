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

// heapOrderText and beforeClockText are the audit's two heap messages as
// they have always read, bucket index included.
func heapOrderText(where string, i int, n, parent *eventNode) string {
	return fmt.Sprintf("des: audit: %s heap order violated at index %d (t=%v seq=%d under t=%v seq=%d)",
		where, i, n.at, n.seq, parent.at, parent.seq)
}

func beforeClockText(where string, n *eventNode, now Time) string {
	return fmt.Sprintf("des: audit: %s event at t=%v precedes clock t=%v", where, n.at, now)
}

// swapRoot exchanges a heap's root with its last child (a later event).
func swapRoot(h []*eventNode) func() {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	return func() { h[0], h[last] = h[last], h[0] }
}

// TestAuditQueueCatchesCorruption shows each des/queue check biting on a
// live calendar — bucket 0, a three-event bucket 3, bucket 39 and two
// overflow events, clock at 10 ms — and on the reference heap.
func TestAuditQueueCatchesCorruption(t *testing.T) {
	const now = 10 * Millisecond
	times := []Time{10000, 10800, 10850, 10900, 20000, 1000000, 2000000}
	build := func(ref bool) *Sim {
		s := NewSim()
		s.SetReference(ref)
		s.RunUntil(now)
		for _, us := range times {
			s.At(us*Microsecond, func() {})
		}
		return s
	}

	s := build(false)
	q := &s.cal
	if len(q.buckets[0]) != 1 || len(q.buckets[3]) != 3 || len(q.buckets[39]) != 1 || len(q.overflow) != 2 {
		t.Fatalf("calendar layout changed: buckets 0/3/39 hold %d/%d/%d, overflow %d",
			len(q.buckets[0]), len(q.buckets[3]), len(q.buckets[39]), len(q.overflow))
	}
	runCorruptions(t, s, []corruption{
		{"bucket root swapped with a later child", func() (string, bool, func()) {
			b := q.buckets[3]
			undo := swapRoot(b)
			return heapOrderText("bucket 3", 1, b[1], b[0]), true, undo
		}},
		{"event misfiled into the next bucket", func() (string, bool, func()) {
			n := q.buckets[3][2]
			q.buckets[3] = q.buckets[3][:2]
			q.buckets[4] = append(q.buckets[4], n)
			return "filed in bucket 4, indexes to 3", false, func() {
				q.buckets[4] = q.buckets[4][:0]
				q.buckets[3] = append(q.buckets[3], n)
			}
		}},
		{"in-window event moved to overflow", func() (string, bool, func()) {
			n := q.buckets[39][0]
			q.buckets[39] = q.buckets[39][:0]
			heapPush(&q.overflow, n)
			return "indexes to bucket 39 inside the window", false, func() {
				heapPop(&q.overflow)
				q.buckets[39] = append(q.buckets[39], n)
			}
		}},
		{"count skewed by one", func() (string, bool, func()) {
			q.count++
			return fmt.Sprintf("calendar count %d but %d events filed", len(times)+1, len(times)), false,
				func() { q.count-- }
		}},
		{"event planted before the clock", func() (string, bool, func()) {
			n := q.buckets[0][0]
			at := n.at
			n.at = now - 10*Microsecond // still indexes to bucket 0
			return beforeClockText("bucket 0", n, now), true, func() { n.at = at }
		}},
	})

	s = build(true)
	runCorruptions(t, s, []corruption{
		{"reference root swapped with a later child", func() (string, bool, func()) {
			undo := swapRoot(s.heap)
			return heapOrderText("reference heap", 1, s.heap[1], s.heap[0]), true, undo
		}},
		{"reference event planted before the clock", func() (string, bool, func()) {
			n := s.heap[0]
			at := n.at
			n.at = now - 1
			return beforeClockText("reference heap", n, now), true, func() { n.at = at }
		}},
	})
}

// TestAuditQueueAllocatesNothing: a clean audit of a populated calendar —
// every one of its buckets visited — must not allocate; the error labels
// are only built once something is wrong.
func TestAuditQueueAllocatesNothing(t *testing.T) {
	s := NewSim()
	for i := 0; i < 600; i++ {
		s.Schedule(Time(i)*150*Microsecond, func() {})
	}
	s.Schedule(5*Second, func() {})
	if len(s.cal.buckets) < 256 || s.Pending() != 601 {
		t.Fatalf("want ≥ 256 buckets and 601 pending events, have %d and %d", len(s.cal.buckets), s.Pending())
	}
	var err error
	if a := testing.AllocsPerRun(100, func() { err = s.AuditQueue() }); a != 0 || err != nil {
		t.Fatalf("AuditQueue: %v allocs per call, err %v; want 0 and nil", a, err)
	}
}
