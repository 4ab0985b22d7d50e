package des

import "testing"

// A handle whose event has fired must not be able to cancel a later event
// that reuses the same pooled node.
func TestStaleCancelDoesNotHitRecycledNode(t *testing.T) {
	s := NewSim()
	first := s.Schedule(Second, func() {})
	s.Run()
	if !first.Fired() {
		t.Fatal("first event did not fire")
	}
	// The next Schedule reuses the node first's handle still points at.
	fired := false
	second := s.Schedule(Second, func() { fired = true })
	first.Cancel() // stale: must be a no-op
	if second.Fired() || s.Pending() != 1 {
		t.Fatal("stale Cancel cancelled the recycled node's new event")
	}
	s.Run()
	if !fired {
		t.Fatal("second event did not fire after stale Cancel")
	}
}

// A cancelled node is recycled at Cancel; its stale handle must be inert
// too.
func TestStaleHandleAfterCancelReap(t *testing.T) {
	s := NewSim()
	victim := s.Schedule(Second, func() { t.Fatal("cancelled event fired") })
	victim.Cancel()
	s.Run()
	fired := false
	s.Schedule(Second, func() { fired = true })
	victim.Cancel() // stale
	s.Run()
	if !fired {
		t.Fatal("event reusing a cancel-reaped node did not fire")
	}
}

// The zero Event is valid to operate on.
func TestZeroEventIsInert(t *testing.T) {
	var e Event
	e.Cancel()
	if e.Valid() || e.Fired() || e.Time() != 0 {
		t.Fatalf("zero Event not inert: %+v", e)
	}
}

// Steady-state event churn must not allocate: the free list feeds every
// Schedule once the first wave of nodes has fired.
func TestEventChurnDoesNotAllocate(t *testing.T) {
	s := NewSim()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 10_000 {
			s.Schedule(Microsecond, step)
		}
	}
	s.Schedule(Microsecond, step)
	allocs := testing.AllocsPerRun(1, func() { s.Run() })
	if allocs > 1 {
		t.Fatalf("event churn allocated %.0f objects per run, want ≈0", allocs)
	}
	if n != 10_000 {
		t.Fatalf("chain executed %d events, want 10000", n)
	}
}

// TestCancelRemovesAtOnce pins the cancel contract of the indexed heap:
// the event leaves the list at Cancel — Pending drops there, not when the
// run loop would have reached it — its handle goes stale, its node is
// reused by the next schedule call without the old handle reaching it, and
// every Cancel that finds nothing to remove is a no-op.
func TestCancelRemovesAtOnce(t *testing.T) {
	s := NewSim()
	fired := map[int]bool{}
	var evs []Event
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, s.Schedule(Time(i+1)*Second, func() { fired[i] = true }))
	}
	check := func(what string, pending int) {
		t.Helper()
		if s.Pending() != pending {
			t.Fatalf("%s: Pending() = %d, want %d", what, s.Pending(), pending)
		}
		if err := s.AuditQueue(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	evs[0].Cancel() // the root
	check("root cancelled", 9)
	evs[9].Cancel() // the last entry
	check("last entry cancelled", 8)
	evs[4].Cancel() // an interior entry
	check("interior entry cancelled", 7)
	evs[4].Cancel() // twice
	check("cancelled twice", 7)
	if !evs[4].Fired() {
		t.Fatal("a cancelled event's handle should be stale")
	}

	// The three freed nodes back the next three events; the stale handles
	// must not reach them.
	free := s.FreeListLen()
	for i := 10; i < 13; i++ {
		i := i
		s.Schedule(Time(i+1)*Second, func() { fired[i] = true })
	}
	if s.FreeListLen() != free-3 {
		t.Fatalf("free list went %d → %d over three schedules, want the cancelled nodes reused", free, s.FreeListLen())
	}
	evs[0].Cancel()
	evs[9].Cancel()
	evs[4].Cancel()
	check("stale cancels after reuse", 10)

	// From inside the event's own handler, and after it fired.
	var self Event
	self = s.Schedule(500*Millisecond, func() {
		self.Cancel()
		check("cancelled from its own handler", 10)
	})
	s.RunUntil(2 * Second) // fires self and event 1
	evs[1].Cancel()
	check("cancelled after it fired", 9)

	// After Reset every handle is stale.
	s.Reset()
	keep := s.Schedule(Second, func() { fired[99] = true })
	for _, ev := range evs {
		ev.Cancel()
	}
	check("cancelled after Reset", 1)
	s.Run()
	for i := range 13 {
		want := i == 1
		if fired[i] != want {
			t.Errorf("event %d fired=%v, want %v", i, fired[i], want)
		}
	}
	if !fired[99] || !keep.Fired() {
		t.Error("the event scheduled after Reset did not fire")
	}
}
