package des

import (
	"sort"
	"testing"
	"testing/quick"

	"clnlr/internal/rng"
)

func TestEventsExecuteInTimeOrder(t *testing.T) {
	s := NewSim()
	var order []Time
	for _, d := range []Time{5 * Second, 1 * Second, 3 * Second, 2 * Second, 4 * Second} {
		d := d
		s.ScheduleCall(d, Func(func() { order = append(order, s.Now()) }), 0, 0)
	}
	s.Run()
	if len(order) != 5 {
		t.Fatalf("executed %d events, want 5", len(order))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events out of order: %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleCall(Second, Func(func() { order = append(order, i) }), 0, 0)
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := NewSim()
	s.ScheduleCall(10*Millisecond, Func(func() {
		if s.Now() != 10*Millisecond {
			t.Errorf("Now = %v inside handler, want 10ms", s.Now())
		}
	}), 0, 0)
	s.Run()
	if s.Now() != 10*Millisecond {
		t.Fatalf("final Now = %v, want 10ms", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var hits []Time
	s.ScheduleCall(Second, Func(func() {
		hits = append(hits, s.Now())
		s.ScheduleCall(Second, Func(func() {
			hits = append(hits, s.Now())
		}), 0, 0)
	}), 0, 0)
	s.Run()
	if len(hits) != 2 || hits[0] != Second || hits[1] != 2*Second {
		t.Fatalf("nested scheduling produced %v", hits)
	}
}

func TestCancel(t *testing.T) {
	s := NewSim()
	fired := false
	ev := s.ScheduleCall(Second, Func(func() { fired = true }), 0, 0)
	ev.Cancel()
	if !ev.Fired() || s.Pending() != 0 {
		t.Fatalf("after Cancel: Fired()=%v Pending()=%d, want a stale handle and an empty list", ev.Fired(), s.Pending())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromHandler(t *testing.T) {
	s := NewSim()
	fired := false
	var victim Event
	s.ScheduleCall(Second, Func(func() { victim.Cancel() }), 0, 0)
	victim = s.ScheduleCall(2*Second, Func(func() { fired = true }), 0, 0)
	s.Run()
	if fired {
		t.Fatal("event cancelled from an earlier handler still fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := NewSim()
	ev := s.ScheduleCall(Second, Func(func() {}), 0, 0)
	s.Run()
	if !ev.Fired() {
		t.Fatal("Fired() false after run")
	}
	// The fired event's node now backs another; the stale Cancel must not
	// take that one out of the list.
	s.ScheduleCall(Second, Func(func() {}), 0, 0)
	ev.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Cancel after firing left %d events pending, want 1", s.Pending())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewSim()
	var fired []Time
	s.ScheduleCall(1*Second, Func(func() { fired = append(fired, s.Now()) }), 0, 0)
	s.ScheduleCall(5*Second, Func(func() { fired = append(fired, s.Now()) }), 0, 0)
	s.RunUntil(3 * Second)
	if len(fired) != 1 {
		t.Fatalf("fired %d events before horizon, want 1", len(fired))
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock at %v after RunUntil(3s)", s.Now())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event did not fire on resumed run")
	}
}

func TestRunUntilDrainedQueueAdvancesToHorizon(t *testing.T) {
	s := NewSim()
	s.ScheduleCall(Second, Func(func() {}), 0, 0)
	s.RunUntil(10 * Second)
	if s.Now() != 10*Second {
		t.Fatalf("clock at %v, want horizon 10s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleCall(Time(i)*Second, Func(func() {
			count++
			if count == 3 {
				s.Stop()
			}
		}), 0, 0)
	}
	s.Run()
	if count != 3 {
		t.Fatalf("executed %d events after Stop at 3", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending %d, want 7", s.Pending())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := NewSim()
	var at Time = -1
	s.ScheduleCall(5*Second, Func(func() {
		s.ScheduleCall(-3*Second, Func(func() { at = s.Now() }), 0, 0)
	}), 0, 0)
	s.Run()
	if at != 5*Second {
		t.Fatalf("negative-delay event ran at %v, want 5s", at)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	s := NewSim()
	var at Time = -1
	s.ScheduleCall(5*Second, Func(func() {
		s.AtCall(Second, Func(func() { at = s.Now() }), 0, 0)
	}), 0, 0)
	s.Run()
	if at != 5*Second {
		t.Fatalf("past-scheduled event ran at %v, want clamped 5s", at)
	}
}

// TestNilHandlerPanics: every way to queue an event refuses a nil
// Handler when it is scheduled, not when it would fire (AtCall's own
// check is TestNilTypedHandlerPanics).
func TestNilHandlerPanics(t *testing.T) {
	s := NewSim()
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"ScheduleCall", func() { s.ScheduleCall(Second, nil, 0, 0) }},
		{"Lane.Call", func() { s.Lane(Second).Call(nil, 0, 0) }},
		{"AtTrain", func() { s.AtTrain(Second, Second, 2, nil, 0, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", c.name)
				}
			}()
			c.schedule()
		}()
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events queued with a nil handler", s.Pending())
	}
}

func TestExecutedCount(t *testing.T) {
	s := NewSim()
	for i := 0; i < 25; i++ {
		s.ScheduleCall(Time(i)*Millisecond, Func(func() {}), 0, 0)
	}
	ev := s.ScheduleCall(Second, Func(func() {}), 0, 0)
	ev.Cancel()
	s.Run()
	if s.Executed() != 25 {
		t.Fatalf("Executed = %d, want 25 (cancelled events excluded)", s.Executed())
	}
}

// Property: for any multiset of delays, execution order is a non-decreasing
// sequence of times and every non-cancelled event fires exactly once.
func TestQuickTotalOrder(t *testing.T) {
	f := func(raw []uint32) bool {
		s := NewSim()
		var fired []Time
		for _, r := range raw {
			s.ScheduleCall(Time(r%1_000_000)*Microsecond, Func(func() {
				fired = append(fired, s.Now())
			}), 0, 0)
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random scheduling and cancellation never fires a
// cancelled event and never loses a live one.
func TestQuickCancelConsistency(t *testing.T) {
	src := rng.New(77)
	f := func(n uint8) bool {
		s := NewSim()
		count := int(n%50) + 1
		firedMask := make([]bool, count)
		events := make([]Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = s.ScheduleCall(Time(src.Intn(1000))*Millisecond, Func(func() {
				firedMask[i] = true
			}), 0, 0)
		}
		cancelled := make([]bool, count)
		for i := 0; i < count; i++ {
			if src.Bool(0.4) {
				events[i].Cancel()
				cancelled[i] = true
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			if cancelled[i] && firedMask[i] {
				return false
			}
			if !cancelled[i] && !firedMask[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v", got)
	}
	if FromSeconds(-1.5) != -1500*Millisecond {
		t.Fatalf("FromSeconds(-1.5) = %v", FromSeconds(-1.5))
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1000; j++ {
			s.ScheduleCall(Time(j)*Microsecond, Func(func() {}), 0, 0)
		}
		s.Run()
	}
}

func BenchmarkEventChurn(b *testing.B) {
	// A self-sustaining event chain, the pattern the MAC layer produces.
	s := NewSim()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			s.ScheduleCall(Microsecond, Func(step), 0, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleCall(Microsecond, Func(step), 0, 0)
	s.Run()
}

// BenchmarkContentionChurn is the DCF's contention pattern without the
// stack: k contenders arm a DIFS timer, one busy edge cancels them all,
// and they re-arm, over a heap holding the far-off timers of a 49-node
// run. One op is one round (k schedules, k cancels, one edge). "heap"
// schedules the DIFS timers with ScheduleCall, "lane" through a Lane.
func BenchmarkContentionChurn(b *testing.B) {
	const k, difs = 16, 50 * Microsecond
	for _, mode := range []string{"heap", "lane"} {
		b.Run(mode, func(b *testing.B) {
			s := NewSim()
			c := &contention{s: s, timers: make([]Event, k), difs: s.Lane(difs)}
			c.lane = mode == "lane"
			idle := Func(func() {})
			for i := 0; i < 200; i++ {
				s.ScheduleCall(Time(i+1)*Second, idle, 0, 0)
			}
			c.rounds = b.N
			b.ReportAllocs()
			b.ResetTimer()
			s.ScheduleCall(20*Microsecond, c, opEdge, 0)
			s.RunUntil(Time(b.N+2) * 20 * Microsecond)
			if c.rounds != 0 {
				b.Fatalf("%d rounds left", c.rounds)
			}
		})
	}
}

const (
	opEdge int32 = iota
	opDifs
)

type contention struct {
	s      *Sim
	lane   bool
	difs   Lane
	timers []Event
	rounds int
}

func (c *contention) HandleEvent(op int32, _ uint32) {
	if op != opEdge {
		return // a DIFS expiry: never reached, the edge comes first
	}
	for i := range c.timers {
		c.timers[i].Cancel()
	}
	if c.rounds == 0 {
		return
	}
	c.rounds--
	for i := range c.timers {
		if c.lane {
			c.timers[i] = c.difs.Call(c, opDifs, uint32(i))
		} else {
			c.timers[i] = c.s.ScheduleCall(c.difs.d, c, opDifs, uint32(i))
		}
	}
	c.s.ScheduleCall(20*Microsecond, c, opEdge, 0)
}
