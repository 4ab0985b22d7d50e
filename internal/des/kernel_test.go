package des

import (
	"fmt"
	"slices"
	"testing"

	"clnlr/internal/rng"
)

// --- RunUntil contract (uniform across every horizon) ---

func TestRunUntilEmptyQueueClampsToHorizon(t *testing.T) {
	for _, horizon := range []Time{10 * Second, MaxTime} {
		s := NewSim()
		s.RunUntil(horizon)
		if s.Now() != horizon {
			t.Errorf("RunUntil(%v) on empty queue left clock at %v", horizon, s.Now())
		}
	}
}

func TestRunUntilDrainedQueueClampsToMaxTime(t *testing.T) {
	// MaxTime is a horizon like any other: the clock does not stay at the
	// last event.
	s := NewSim()
	s.Schedule(Second, func() {})
	s.RunUntil(MaxTime)
	if s.Now() != MaxTime {
		t.Fatalf("RunUntil(MaxTime) left clock at %v, want MaxTime", s.Now())
	}
}

func TestRunDoesNotClamp(t *testing.T) {
	s := NewSim()
	s.Schedule(Second, func() {})
	s.Run()
	if s.Now() != Second {
		t.Fatalf("Run() left clock at %v, want 1s (no horizon clamp)", s.Now())
	}
}

func TestStopSuppressesHorizonClamp(t *testing.T) {
	s := NewSim()
	s.Schedule(Second, func() { s.Stop() })
	s.RunUntil(10 * Second)
	if s.Now() != Second {
		t.Fatalf("clock at %v after Stop, want the stopping handler's 1s", s.Now())
	}
}

// --- event-list shapes ---
//
// Written against the calendar queue this kernel used to have (the names
// are kept so the suite's test identities stay put); each is an ordering
// shape any event list has to get right, checked through the public API
// only.

// TestCalendarRebaseOnEarlierInsert schedules events earlier than the one
// already queued.
func TestCalendarRebaseOnEarlierInsert(t *testing.T) {
	s := NewSim()
	var order []Time
	rec := func() { order = append(order, s.Now()) }
	s.At(5*Second, rec)
	s.At(0, rec) // must still fire first
	s.At(2*Second, rec)
	s.Run()
	want := []Time{0, 2 * Second, 5 * Second}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestCalendarOverflowTier queues events hours apart, latest first, and
// checks exact execution order.
func TestCalendarOverflowTier(t *testing.T) {
	s := NewSim()
	var order []Time
	for i := 20; i >= 0; i-- {
		s.At(Time(i)*3600*Second, func() { order = append(order, s.Now()) })
	}
	s.Run()
	if len(order) != 21 {
		t.Fatalf("fired %d events, want 21", len(order))
	}
	for i, at := range order {
		if at != Time(i)*3600*Second {
			t.Fatalf("event %d at %v", i, at)
		}
	}
}

// TestCalendarResize queues 20 000 events at random times (a heap seven
// levels deep) and drains them in order.
func TestCalendarResize(t *testing.T) {
	s := NewSim()
	src := rng.New(42)
	const n = 20000
	fired := 0
	var last Time = -1
	for i := 0; i < n; i++ {
		s.Schedule(Time(src.Intn(int(10*Second))), func() {
			if s.Now() < last {
				t.Fatalf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
			fired++
		})
	}
	s.Run()
	if fired != n {
		t.Fatalf("fired %d of %d events", fired, n)
	}
}

// TestCalendarSameTimeStorm checks FIFO among 5 000 events at one instant —
// the RREQ-broadcast-storm shape, ordered by sequence number alone.
func TestCalendarSameTimeStorm(t *testing.T) {
	s := NewSim()
	const n = 5000
	next := 0
	for i := 0; i < n; i++ {
		i := i
		s.At(Second, func() {
			if i != next {
				t.Fatalf("same-time event %d fired at position %d", i, next)
			}
			next++
		})
	}
	s.Run()
	if next != n {
		t.Fatalf("fired %d of %d same-time events", next, n)
	}
}

// TestCalendarWindowReadvance mixes near and far-future events with a
// handler that schedules just ahead of the clock late in the run.
func TestCalendarWindowReadvance(t *testing.T) {
	s := NewSim()
	var order []Time
	rec := func() { order = append(order, s.Now()) }
	for _, at := range []Time{Millisecond, Second, 60 * Second, 30 * 60 * Second, 2 * 3600 * Second} {
		s.At(at, rec)
	}
	s.At(60*Second, func() { s.Schedule(Microsecond, rec) })
	s.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("order regressed: %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("fired %d events, want 6", len(order))
	}
}

// --- typed events ---

type recordingHandler struct {
	s    *Sim
	got  []int32
	args []uint32
	at   []Time
}

func (h *recordingHandler) HandleEvent(op int32, arg uint32) {
	h.got = append(h.got, op)
	h.args = append(h.args, arg)
	h.at = append(h.at, h.s.Now())
}

func TestTypedEventsDeliverOpAndArg(t *testing.T) {
	s := NewSim()
	h := &recordingHandler{s: s}
	s.ScheduleCall(2*Second, h, 7, 99)
	s.AtCall(Second, h, 3, 0xffffffff)
	s.Run()
	if len(h.got) != 2 || h.got[0] != 3 || h.got[1] != 7 {
		t.Fatalf("ops %v, want [3 7]", h.got)
	}
	if h.args[0] != 0xffffffff || h.args[1] != 99 {
		t.Fatalf("args %v", h.args)
	}
	if h.at[0] != Second || h.at[1] != 2*Second {
		t.Fatalf("times %v", h.at)
	}
}

func TestTypedAndClosureEventsShareOneOrder(t *testing.T) {
	s := NewSim()
	var order []string
	h := &funcHandler{fn: func() { order = append(order, "typed") }}
	s.Schedule(Second, func() { order = append(order, "closure1") })
	s.ScheduleCall(Second, h, 0, 0)
	s.Schedule(Second, func() { order = append(order, "closure2") })
	s.Run()
	want := []string{"closure1", "typed", "closure2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

type funcHandler struct{ fn func() }

func (h *funcHandler) HandleEvent(int32, uint32) { h.fn() }

func TestTypedEventCancel(t *testing.T) {
	s := NewSim()
	h := &recordingHandler{s: s}
	ev := s.ScheduleCall(Second, h, 1, 2)
	ev.Cancel()
	s.Run()
	if len(h.got) != 0 {
		t.Fatal("cancelled typed event fired")
	}
}

func TestNilTypedHandlerPanics(t *testing.T) {
	s := NewSim()
	defer func() {
		if recover() == nil {
			t.Fatal("AtCall(nil) did not panic")
		}
	}()
	s.AtCall(Second, nil, 0, 0)
}

func TestTypedScheduleDoesNotAllocate(t *testing.T) {
	s := NewSim()
	h := &funcHandler{fn: func() {}}
	// Warm the pools.
	for i := 0; i < 100; i++ {
		s.ScheduleCall(Microsecond, h, 0, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.ScheduleCall(Microsecond, h, 0, 0)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state typed scheduling allocates %.1f per run", allocs)
	}
}

// --- pool caps and high-water marks ---

func TestFreeListCap(t *testing.T) {
	s := NewSim()
	s.SetFreeListCap(4)
	for i := 0; i < 100; i++ {
		s.Schedule(Time(i)*Microsecond, func() {})
	}
	s.Run()
	if got := s.FreeListLen(); got > 4 {
		t.Fatalf("free list %d exceeds cap 4", got)
	}
	if s.FreeListDrops() == 0 {
		t.Fatal("no drops recorded despite cap pressure")
	}
}

func TestSetFreeListCapTrimsExisting(t *testing.T) {
	s := NewSim()
	for i := 0; i < 50; i++ {
		s.Schedule(Time(i)*Microsecond, func() {})
	}
	s.Run()
	if s.FreeListLen() == 0 {
		t.Fatal("expected a populated free list")
	}
	s.SetFreeListCap(2)
	if got := s.FreeListLen(); got != 2 {
		t.Fatalf("free list %d after trim to 2", got)
	}
	s.SetFreeListCap(-1) // restore default
	if s.freeCap != DefaultFreeListCap {
		t.Fatalf("freeCap %d, want default", s.freeCap)
	}
}

func TestPendingHighWater(t *testing.T) {
	s := NewSim()
	for i := 0; i < 37; i++ {
		s.Schedule(Time(i)*Millisecond, func() {})
	}
	s.Run()
	if s.PendingHighWater() != 37 {
		t.Fatalf("pending high-water %d, want 37", s.PendingHighWater())
	}
	s.Reset()
	if s.PendingHighWater() != 0 {
		t.Fatalf("high-water %d after Reset", s.PendingHighWater())
	}
}

// --- trains ---

// TestTrainHoldsOneSlot: a train fires its ticks at t, t+p, … in the order
// separate AtCalls made at the same point would — after an event queued
// earlier for a shared instant, before one queued later — while Pending
// and PendingHighWater count it once; Reset drops it with its handle.
func TestTrainHoldsOneSlot(t *testing.T) {
	s := NewSim()
	var got []string
	h := &funcHandler{fn: func() { got = append(got, fmt.Sprintf("train@%d", s.Now()/Millisecond)) }}
	s.At(2*Millisecond, func() { got = append(got, "before@2") })
	s.AtTrain(Millisecond, Millisecond, 4, h, 0, 0)
	s.At(2*Millisecond, func() { got = append(got, "after@2") })
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d with a 4-tick train and two events, want 3", s.Pending())
	}
	s.Run()
	want := []string{"train@1", "before@2", "train@2", "after@2", "train@3", "train@4"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if s.PendingHighWater() != 3 || s.Executed() != 6 {
		t.Fatalf("high-water %d, executed %d; want 3 and 6", s.PendingHighWater(), s.Executed())
	}

	ev := s.AtTrain(s.Now(), Millisecond, 10, h, 0, 0)
	s.Reset()
	if s.Pending() != 0 || !ev.Fired() {
		t.Fatalf("after Reset: Pending %d, handle fired %v; want 0 and true", s.Pending(), ev.Fired())
	}
	got = got[:0]
	s.Run()
	if len(got) != 0 {
		t.Fatalf("a reset train still fired %v", got)
	}
	if ev := s.AtTrain(0, Millisecond, 0, h, 0, 0); ev.Valid() || s.Pending() != 0 {
		t.Fatal("a zero-tick train was queued")
	}
}
