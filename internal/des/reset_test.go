package des

import "testing"

// TestResetDiscardsPendingAndRestartsClock pins the warm-reuse contract of
// Sim.Reset: pending events never fire, the clock returns to zero, and a
// subsequent run schedules with the same (time, sequence) ordering a fresh
// NewSim would.
func TestResetDiscardsPendingAndRestartsClock(t *testing.T) {
	s := NewSim()
	fired := 0
	leaked := false
	s.Schedule(Second, func() { fired++ })
	s.Schedule(2*Second, func() { leaked = true })
	s.RunUntil(Second)
	if fired != 1 {
		t.Fatalf("fired %d events before reset, want 1", fired)
	}

	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Executed() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d executed=%d", s.Now(), s.Pending(), s.Executed())
	}
	if err := s.AuditQueue(); err != nil {
		t.Fatalf("after Reset: %v", err)
	}

	// Rerun: FIFO order among simultaneous events must restart from
	// sequence zero, exactly as on a fresh sim.
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Schedule(Second, func() { order = append(order, i) })
	}
	s.Run()
	if leaked {
		t.Fatal("event pending at Reset fired after it")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("post-reset simultaneous events not FIFO: %v", order)
		}
	}
	if s.Now() != Second {
		t.Fatalf("post-reset clock = %v, want 1s", s.Now())
	}
}

// TestResetZeroesPerRunDiagnostics: every counter a run reports about the
// kernel restarts at Reset, so a warm engine's figures are that run's own.
func TestResetZeroesPerRunDiagnostics(t *testing.T) {
	s := NewSim()
	for i := 0; i < freeListCap+10; i++ {
		s.Schedule(Time(i)*Millisecond, func() {})
	}
	s.Schedule(Second, func() { s.At(0, func() {}) })
	s.Run()
	if s.FreeListDrops() == 0 || s.PendingHighWater() == 0 || s.PastSchedules() == 0 || s.Executed() == 0 {
		t.Fatalf("run left drops=%d hw=%d past=%d executed=%d; the test needs all four nonzero",
			s.FreeListDrops(), s.PendingHighWater(), s.PastSchedules(), s.Executed())
	}
	s.Reset()
	if s.FreeListDrops() != 0 || s.PendingHighWater() != 0 || s.PastSchedules() != 0 || s.Executed() != 0 {
		t.Fatalf("after Reset: drops=%d hw=%d past=%d executed=%d, want all zero",
			s.FreeListDrops(), s.PendingHighWater(), s.PastSchedules(), s.Executed())
	}
}

// TestResetStalesHandles verifies every outstanding Event handle — fired,
// pending or cancelled — goes stale across a Reset: Cancel is a no-op and
// cannot touch the recycled node's new occupant.
func TestResetStalesHandles(t *testing.T) {
	s := NewSim()
	hit := 0
	pending := s.Schedule(5*Second, func() { hit++ })
	fired := s.Schedule(Second, func() {})
	canceled := s.Schedule(2*Second, func() {})
	canceled.Cancel()
	s.RunUntil(3 * Second)

	s.Reset()
	if !pending.Fired() || !fired.Fired() || !canceled.Fired() {
		t.Error("stale handles should conservatively report Fired")
	}

	// The recycled nodes now back fresh events; stale Cancels must not
	// touch them.
	replacement := s.Schedule(Second, func() { hit += 10 })
	pending.Cancel()
	fired.Cancel()
	canceled.Cancel()
	s.Run()
	if hit != 10 {
		t.Fatalf("hit = %d, want 10 (stale Cancel leaked onto recycled node)", hit)
	}
	if !replacement.Fired() {
		t.Fatal("replacement event did not fire")
	}
}
