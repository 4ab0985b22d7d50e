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
	s.ScheduleCall(Second, Func(func() {}), 0, 0)
	s.RunUntil(MaxTime)
	if s.Now() != MaxTime {
		t.Fatalf("RunUntil(MaxTime) left clock at %v, want MaxTime", s.Now())
	}
}

func TestRunDoesNotClamp(t *testing.T) {
	s := NewSim()
	s.ScheduleCall(Second, Func(func() {}), 0, 0)
	s.Run()
	if s.Now() != Second {
		t.Fatalf("Run() left clock at %v, want 1s (no horizon clamp)", s.Now())
	}
}

func TestStopSuppressesHorizonClamp(t *testing.T) {
	s := NewSim()
	s.ScheduleCall(Second, Func(func() { s.Stop() }), 0, 0)
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
	s.AtCall(5*Second, Func(rec), 0, 0)
	s.AtCall(0, Func(rec), 0, 0) // must still fire first
	s.AtCall(2*Second, Func(rec), 0, 0)
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
		s.AtCall(Time(i)*3600*Second, Func(func() { order = append(order, s.Now()) }), 0, 0)
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
		s.ScheduleCall(Time(src.Intn(int(10*Second))), Func(func() {
			if s.Now() < last {
				t.Fatalf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
			fired++
		}), 0, 0)
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
		s.AtCall(Second, Func(func() {
			if i != next {
				t.Fatalf("same-time event %d fired at position %d", i, next)
			}
			next++
		}), 0, 0)
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
		s.AtCall(at, Func(rec), 0, 0)
	}
	s.AtCall(60*Second, Func(func() { s.ScheduleCall(Microsecond, Func(rec), 0, 0) }), 0, 0)
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

// TestTypedAndClosureEventsShareOneOrder: a closure scheduled through
// Func is an event like any other. At one instant, Func events and a
// component's typed events, on the heap and on a lane, fire in the order
// they were scheduled.
func TestTypedAndClosureEventsShareOneOrder(t *testing.T) {
	s := NewSim()
	var order []string
	closure := func(name string) Func { return func() { order = append(order, name) } }
	h := opNamer{&order}
	lane := s.Lane(Second)
	s.ScheduleCall(Second, closure("closure1"), 0, 0)
	s.ScheduleCall(Second, h, 1, 0)
	lane.Call(h, 2, 0)
	s.AtCall(Second, closure("closure2"), 0, 0)
	lane.Call(closure("closure3"), 0, 0)
	s.ScheduleCall(Second, h, 3, 0)
	s.Run()
	want := []string{"closure1", "typed1", "typed2", "closure2", "closure3", "typed3"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// opNamer is a component's Handler: it logs each event as "typed<op>".
type opNamer struct{ order *[]string }

func (h opNamer) HandleEvent(op int32, _ uint32) {
	*h.order = append(*h.order, fmt.Sprintf("typed%d", op))
}

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
	h := Func(func() {})
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
	// A func value is pointer-shaped: wrapping one that captures nothing
	// in Func and scheduling it allocates nothing either.
	allocs = testing.AllocsPerRun(100, func() {
		s.ScheduleCall(Microsecond, Func(func() {}), 0, 0)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("scheduling a non-capturing Func allocates %.1f per run", allocs)
	}
	// Lane scheduling and cancelling on the warm Sim: the rings keep their
	// storage, a cancelled slot is skipped, not freed.
	difs, ack := s.Lane(50*Microsecond), s.Lane(300*Microsecond)
	for i := 0; i < 100; i++ {
		difs.Call(h, 0, 0)
		ack.Call(h, 0, 0)
	}
	s.Run()
	allocs = testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			stale := difs.Call(h, 0, 0)
			ev := ack.Call(h, 0, 0)
			difs.Call(h, 0, 0)
			stale.Cancel() // a stale slot in front of a live one
			ev.Cancel()    // its lane's only event: the lane empties
		}
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state lane scheduling allocates %.1f per run", allocs)
	}
}

// --- the node pool and high-water marks ---

// TestFreeListCap (a historical name: the free list has no cap) keeps
// every node: 16 484 events, all pending at once, come back to the free
// list, and a second run of as many makes none.
func TestFreeListCap(t *testing.T) {
	const n = 16484
	s := NewSim()
	schedule := func() {
		for i := 0; i < n; i++ {
			s.ScheduleCall(Time(i)*Microsecond, Func(func() {}), 0, 0)
		}
	}
	schedule()
	s.Run()
	if got := s.free.Len(); got != n {
		t.Fatalf("free list %d after %d events, want all %d nodes", got, n, n)
	}
	s.Reset()
	schedule()
	if got := s.free.Len(); got != 0 {
		t.Fatalf("free list %d with %d events pending, want every node reused", got, n)
	}
}

func TestPendingHighWater(t *testing.T) {
	s := NewSim()
	for i := 0; i < 37; i++ {
		s.ScheduleCall(Time(i)*Millisecond, Func(func() {}), 0, 0)
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
	h := Func(func() { got = append(got, fmt.Sprintf("train@%d", s.Now()/Millisecond)) })
	s.AtCall(2*Millisecond, Func(func() { got = append(got, "before@2") }), 0, 0)
	s.AtTrain(Millisecond, Millisecond, 4, h, 0, 0)
	s.AtCall(2*Millisecond, Func(func() { got = append(got, "after@2") }), 0, 0)
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

// TestTrainTicksAtItsPeriod: a train of n ticks fires at t, t+p, …,
// t+(n−1)p and then is done — its handle fired, nothing left queued.
func TestTrainTicksAtItsPeriod(t *testing.T) {
	s := NewSim()
	var ticks []Time
	ev := s.AtTrain(Second, Second, 5, Func(func() { ticks = append(ticks, s.Now()) }), 0, 0)
	s.RunUntil(4*Second + 500*Millisecond)
	if len(ticks) != 4 || ev.Fired() || s.Pending() != 1 {
		t.Fatalf("by 4.5 s: ticks %v, handle fired %v, pending %d; want 4 ticks, false, 1", ticks, ev.Fired(), s.Pending())
	}
	s.Run()
	if len(ticks) != 5 || !ev.Fired() || s.Pending() != 0 {
		t.Fatalf("after Run: ticks %v, handle fired %v, pending %d; want 5 ticks, true, 0", ticks, ev.Fired(), s.Pending())
	}
	for i, at := range ticks {
		if at != Time(i+1)*Second {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

// TestTrainCancelFromTick: a tick that cancels its own train fires, and
// no tick after it does.
func TestTrainCancelFromTick(t *testing.T) {
	s := NewSim()
	n := 0
	var ev Event
	ev = s.AtTrain(Second, Second, 100, Func(func() {
		if n++; n == 3 {
			ev.Cancel()
		}
	}), 0, 0)
	s.RunUntil(100 * Second)
	if n != 3 || s.Pending() != 0 {
		t.Fatalf("train fired %d ticks after cancelling itself at 3, %d pending", n, s.Pending())
	}
}

// TestTrainRejectsBadArguments: a train with a negative period, or one
// starting before the clock, panics and queues nothing.
func TestTrainRejectsBadArguments(t *testing.T) {
	s := NewSim()
	s.RunUntil(Second)
	h := Func(func() {})
	for _, c := range []struct {
		name          string
		start, period Time
	}{
		{"negative period", 2 * Second, -Millisecond},
		{"start before the clock", Second - 1, Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AtTrain with %s did not panic", c.name)
				}
			}()
			s.AtTrain(c.start, c.period, 3, h, 0, 0)
		}()
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events queued by rejected trains", s.Pending())
	}
}
