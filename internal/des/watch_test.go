package des

import (
	"testing"
)

// TestWatchAbortPanicsWithStallError pins the watchdog kill path: an
// aborted watch makes the run loop panic with *StallError at its next
// publication point, even though events keep firing (the zero-delay
// livelock shape).
func TestWatchAbortPanicsWithStallError(t *testing.T) {
	s := NewSim()
	w := new(Watch)
	s.SetWatch(w)
	w.BeginJob()
	// Zero-delay livelock: simulated time never advances.
	var spin func()
	spin = func() { s.ScheduleCall(0, Func(spin), 0, 0) }
	s.ScheduleCall(0, Func(spin), 0, 0)
	w.Abort()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("aborted run did not panic")
		}
		se, ok := v.(*StallError)
		if !ok {
			t.Fatalf("panicked with %T (%v), want *StallError", v, v)
		}
		if se.Now != 0 {
			t.Errorf("stall reported at t=%v, want 0 (livelock never advances)", se.Now)
		}
		if se.Executed == 0 || se.Executed&watchStrideMask != 0 {
			t.Errorf("abort landed at executed=%d, want a non-zero publication stride", se.Executed)
		}
	}()
	s.RunUntil(Second)
}

// TestWatchGenerationsFenceJobs pins BeginJob semantics: a stale abort
// from one job must not kill the next.
func TestWatchGenerationsFenceJobs(t *testing.T) {
	s := NewSim()
	w := new(Watch)
	s.SetWatch(w)
	w.BeginJob()
	w.Abort()
	w.EndJob()
	gen1, _, _, _ := w.Snapshot()

	w.BeginJob()
	gen2, running, _, _ := w.Snapshot()
	if gen2 == gen1 {
		t.Error("BeginJob did not bump the generation")
	}
	if !running {
		t.Error("BeginJob did not mark the watch running")
	}
	n := 0
	for i := 0; i < 3000; i++ {
		s.ScheduleCall(Time(i), Func(func() { n++ }), 0, 0)
	}
	s.RunUntil(Second) // must not panic: BeginJob cleared the abort
	if n != 3000 {
		t.Fatalf("ran %d events, want 3000", n)
	}
	w.EndJob()
	if _, running, _, _ := w.Snapshot(); running {
		t.Error("EndJob left the watch running")
	}
}

// TestWatchSurvivesReset pins that Reset keeps the watch attached (warm
// engines must stay observable).
func TestWatchSurvivesReset(t *testing.T) {
	s := NewSim()
	w := new(Watch)
	s.SetWatch(w)
	s.Reset()
	w.BeginJob()
	w.Abort()
	s.ScheduleCall(0, Func(func() {}), 0, 0)
	ran := 0
	var spin func()
	spin = func() { ran++; s.ScheduleCall(0, Func(spin), 0, 0) }
	s.ScheduleCall(0, Func(spin), 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("watch detached by Reset: aborted run completed")
		}
	}()
	s.RunUntil(Second)
}

// TestAuditQueueClean pins that a healthy kernel passes the queue audit
// mid-run — between pops, pushes and cancels from the middle of the heap —
// and drained.
func TestAuditQueueClean(t *testing.T) {
	s := NewSim()
	var extra []Event
	for i := 0; i < 500; i++ {
		i := i
		s.ScheduleCall(Time(i)*Millisecond, Func(func() {
			if err := s.AuditQueue(); err != nil {
				t.Fatalf("mid-run: %v", err)
			}
			if i%7 == 0 {
				extra = append(extra, s.ScheduleCall(50*Millisecond, Func(func() {}), 0, 0))
			}
			if i%21 == 0 {
				extra[len(extra)/2].Cancel()
			}
		}), 0, 0)
	}
	s.RunUntil(Second)
	if err := s.AuditQueue(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// TestPastSchedulesCounter pins the clamp diagnostic: scheduling before
// the clock clamps to now and increments PastSchedules; Reset clears it.
func TestPastSchedulesCounter(t *testing.T) {
	s := NewSim()
	ran := false
	s.ScheduleCall(Second, Func(func() {
		s.AtCall(Millisecond, Func(func() { ran = true }), 0, 0) // 1ms < now=1s: clamped
	}), 0, 0)
	s.RunUntil(2 * Second)
	if !ran {
		t.Fatal("clamped event never ran")
	}
	if got := s.PastSchedules(); got != 1 {
		t.Fatalf("PastSchedules = %d, want 1", got)
	}
	s.Reset()
	if got := s.PastSchedules(); got != 0 {
		t.Fatalf("PastSchedules = %d after Reset, want 0", got)
	}
}
