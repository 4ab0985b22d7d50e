package fault

import (
	"slices"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/rng"
)

func TestDrawScheduleDeterministic(t *testing.T) {
	cfg := Config{MeanUpTime: 20 * des.Second, MeanDownTime: 5 * des.Second}
	horizon := 120 * des.Second
	a := cfg.DrawSchedule(nil, 25, horizon, rng.New(42).Derive(7000))
	b := cfg.DrawSchedule(nil, 25, horizon, rng.New(42).Derive(7000))
	if len(a) == 0 {
		t.Fatal("expected churn events over a 120 s horizon")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := cfg.DrawSchedule(nil, 25, horizon, rng.New(43).Derive(7000))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestDrawScheduleReusesStorage: drawing into the slice of an earlier
// schedule gives the schedule a fresh slice would hold, explicit events
// merged in, and allocates nothing once the slice has grown.
func TestDrawScheduleReusesStorage(t *testing.T) {
	cfg := Config{MeanUpTime: 20 * des.Second, MeanDownTime: 5 * des.Second,
		Schedule: []NodeEvent{{Node: 3, At: 7 * des.Second}, {Node: 3, At: 9 * des.Second, Up: true}}}
	horizon := 120 * des.Second
	buf := cfg.DrawSchedule(nil, 25, horizon, rng.New(43))
	got := cfg.DrawSchedule(buf, 25, horizon, rng.New(42))
	want := cfg.DrawSchedule(nil, 25, horizon, rng.New(42))
	if !slices.Equal(got, want) {
		t.Fatalf("schedule drawn into a used slice differs from a fresh one:\n%v\n%v", got, want)
	}
	buf = slices.Grow(got[:0], 2*len(got))
	src := rng.New(42)
	if n := testing.AllocsPerRun(10, func() { buf = cfg.DrawSchedule(buf, 25, horizon, src) }); n != 0 {
		t.Errorf("drawing into a grown slice allocates %v times, want 0", n)
	}
}

func TestDrawScheduleWellFormed(t *testing.T) {
	cfg := Config{MeanUpTime: 10 * des.Second, MeanDownTime: 3 * des.Second}
	horizon := 200 * des.Second
	events := cfg.DrawSchedule(nil, 9, horizon, rng.New(7))
	// Sorted by time, all within [0, horizon), and per node strictly
	// alternating crash → recover → crash starting with a crash.
	up := make(map[int]bool)
	for i, ev := range events {
		if ev.At < 0 || ev.At >= horizon {
			t.Fatalf("event %d outside horizon: %+v", i, ev)
		}
		if i > 0 && ev.At < events[i-1].At {
			t.Fatalf("events not sorted at %d", i)
		}
		was, seen := up[ev.Node]
		if !seen {
			was = true // nodes start up
		}
		if ev.Up == was {
			t.Fatalf("node %d schedule not alternating at %+v", ev.Node, ev)
		}
		up[ev.Node] = ev.Up
	}
}

func TestDrawScheduleExplicitEvents(t *testing.T) {
	cfg := Config{Schedule: []NodeEvent{
		{Node: 3, At: 5 * des.Second, Up: false},
		{Node: 3, At: 9 * des.Second, Up: true},
		{Node: 99, At: des.Second, Up: false},      // out of range: dropped
		{Node: 1, At: 500 * des.Second, Up: false}, // past horizon: dropped
	}}
	events := cfg.DrawSchedule(nil, 10, 60*des.Second, rng.New(1))
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	if events[0] != (NodeEvent{Node: 3, At: 5 * des.Second, Up: false}) ||
		events[1] != (NodeEvent{Node: 3, At: 9 * des.Second, Up: true}) {
		t.Fatalf("unexpected events: %+v", events)
	}
}

func TestValidate(t *testing.T) {
	good := Config{
		MeanUpTime:   30 * des.Second,
		MeanDownTime: 5 * des.Second,
		Link:         LinkParams{MeanGood: des.Second, MeanBad: 100 * des.Millisecond, LossBad: 0.8},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MeanUpTime = -des.Second },
		func(c *Config) { c.MeanDownTime = -des.Second },
		func(c *Config) { c.Schedule = []NodeEvent{{Node: -1, At: des.Second}} },
		func(c *Config) { c.Schedule = []NodeEvent{{Node: 0, At: -des.Second}} },
		func(c *Config) { c.Link.LossBad = 1.5 },
		func(c *Config) { c.Link.LossGood = -0.1 },
		func(c *Config) { c.Link.MeanGood = -des.Second },
		func(c *Config) { c.Link.MeanBad = -des.Second },
		func(c *Config) { c.Link = LinkParams{MeanBad: des.Second, LossBad: 0.5} }, // MeanGood missing
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestLinkModelDeterministicAndMemoised(t *testing.T) {
	p := LinkParams{MeanGood: des.Second, MeanBad: 200 * des.Millisecond, LossBad: 1, LossGood: 0}
	a := NewLinkModel(p, 99, 4)
	b := NewLinkModel(p, 99, 4)
	var seqA, seqB []bool
	for t0 := des.Time(0); t0 < 30*des.Second; t0 += 7 * des.Millisecond {
		seqA = append(seqA, a.Deliver(1, 2, t0))
	}
	// b probes the same link on a coarser timetable: memoised advancement
	// must not change the per-slot outcome.
	for t0 := des.Time(0); t0 < 30*des.Second; t0 += 7 * des.Millisecond {
		seqB = append(seqB, b.Deliver(1, 2, t0))
	}
	lost := 0
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("probe %d differs", i)
		}
		if !seqA[i] {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("LossBad=1 with MeanBad=200ms produced no losses over 30 s")
	}
	if lost == len(seqA) {
		t.Fatal("every frame lost despite good state dominating")
	}
}

func TestLinkModelResetReproduces(t *testing.T) {
	p := LinkParams{MeanGood: 500 * des.Millisecond, MeanBad: 100 * des.Millisecond, LossBad: 0.9, LossGood: 0.05}
	lm := NewLinkModel(p, 7, 3)
	probe := func() []bool {
		var out []bool
		for t0 := des.Time(0); t0 < 5*des.Second; t0 += 11 * des.Millisecond {
			out = append(out, lm.Deliver(0, 2, t0), lm.Deliver(2, 0, t0))
		}
		return out
	}
	first := probe()
	lm.Reset(p, 7, 3)
	second := probe()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("probe %d differs after Reset", i)
		}
	}
	// A different seed must give a different channel.
	lm.Reset(p, 8, 3)
	third := probe()
	same := true
	for i := range first {
		if first[i] != third[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reseeded model reproduced the old channel")
	}
}

func TestLinkModelIndependentLinks(t *testing.T) {
	p := LinkParams{MeanGood: 300 * des.Millisecond, MeanBad: 300 * des.Millisecond, LossBad: 1}
	lm := NewLinkModel(p, 5, 4)
	diff := false
	for t0 := des.Time(0); t0 < 10*des.Second; t0 += 10 * des.Millisecond {
		if lm.Deliver(0, 1, t0) != lm.Deliver(1, 0, t0) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("directed links 0→1 and 1→0 never diverged")
	}
}

// TestDrawScheduleMTTRDefault pins the MeanDownTime=0 edge: churn with no
// explicit MTTR defaults to a 10 s mean downtime, so every crash→recover
// gap lands in the [0.5, 1.5]×10 s draw window.
func TestDrawScheduleMTTRDefault(t *testing.T) {
	cfg := Config{MeanUpTime: 20 * des.Second} // MeanDownTime left zero
	horizon := 300 * des.Second
	events := cfg.DrawSchedule(nil, 8, horizon, rng.New(11))
	lastCrash := map[int]des.Time{}
	gaps := 0
	for _, ev := range events {
		if !ev.Up {
			lastCrash[ev.Node] = ev.At
			continue
		}
		at, ok := lastCrash[ev.Node]
		if !ok {
			t.Fatalf("recover without preceding crash: %+v", ev)
		}
		gap := ev.At - at
		if gap < 5*des.Second || gap > 15*des.Second {
			t.Fatalf("node %d downtime %v outside the [5s,15s] default-MTTR window", ev.Node, gap)
		}
		gaps++
	}
	if gaps == 0 {
		t.Fatal("no crash→recover pairs over a 300 s horizon")
	}
}

// TestDrawScheduleCrashOnCrashedNode pins the merge of explicit events
// with drawn churn: a second crash aimed at a node that is already down
// is kept in the schedule (Node.Crash is idempotent downstream), and
// same-instant recover events still sort before crashes so a
// crash+recover collision leaves the node down deterministically.
func TestDrawScheduleCrashOnCrashedNode(t *testing.T) {
	cfg := Config{Schedule: []NodeEvent{
		{Node: 2, At: 3 * des.Second, Up: false},
		{Node: 2, At: 5 * des.Second, Up: false}, // crash while already down
		{Node: 2, At: 8 * des.Second, Up: true},
		{Node: 2, At: 8 * des.Second, Up: false}, // same-instant collision
	}}
	events := cfg.DrawSchedule(nil, 4, 60*des.Second, rng.New(3))
	if len(events) != 4 {
		t.Fatalf("got %d events, want all 4 kept: %+v", len(events), events)
	}
	if !events[0].Up && !events[1].Up && events[0].At == 3*des.Second && events[1].At == 5*des.Second {
		// both crashes retained in order
	} else {
		t.Fatalf("double crash reordered or dropped: %+v", events[:2])
	}
	if !events[2].Up || events[3].Up {
		t.Fatalf("same-instant events not recover-before-crash: %+v", events[2:])
	}
}
