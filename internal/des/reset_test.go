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
	s.ScheduleCall(Second, Func(func() { fired++ }), 0, 0)
	s.ScheduleCall(2*Second, Func(func() { leaked = true }), 0, 0)
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
		s.ScheduleCall(Second, Func(func() { order = append(order, i) }), 0, 0)
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
	for i := 0; i < 10; i++ {
		s.ScheduleCall(Time(i)*Millisecond, Func(func() {}), 0, 0)
	}
	s.ScheduleCall(Second, Func(func() { s.AtCall(0, Func(func() {}), 0, 0) }), 0, 0)
	s.Run()
	if s.PendingHighWater() == 0 || s.PastSchedules() == 0 || s.Executed() == 0 {
		t.Fatalf("run left hw=%d past=%d executed=%d; the test needs all three nonzero",
			s.PendingHighWater(), s.PastSchedules(), s.Executed())
	}
	s.Reset()
	if s.PendingHighWater() != 0 || s.PastSchedules() != 0 || s.Executed() != 0 {
		t.Fatalf("after Reset: hw=%d past=%d executed=%d, want all zero",
			s.PendingHighWater(), s.PastSchedules(), s.Executed())
	}
}

// TestResetStalesHandles verifies every outstanding Event handle — fired,
// pending or cancelled — goes stale across a Reset: Cancel is a no-op and
// cannot touch the recycled node's new occupant.
func TestResetStalesHandles(t *testing.T) {
	s := NewSim()
	hit := 0
	pending := s.ScheduleCall(5*Second, Func(func() { hit++ }), 0, 0)
	fired := s.ScheduleCall(Second, Func(func() {}), 0, 0)
	canceled := s.ScheduleCall(2*Second, Func(func() {}), 0, 0)
	canceled.Cancel()
	s.RunUntil(3 * Second)

	s.Reset()
	if !pending.Fired() || !fired.Fired() || !canceled.Fired() {
		t.Error("stale handles should conservatively report Fired")
	}

	// The recycled nodes now back fresh events; stale Cancels must not
	// touch them.
	replacement := s.ScheduleCall(Second, Func(func() { hit += 10 }), 0, 0)
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
