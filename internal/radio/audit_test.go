package radio

import (
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

// TestAuditCatchesReceiverMutations seeds one corruption of a receiver
// record at a time into a medium stopped with two frames on the air, and
// expects AuditCoherence to name exactly the field that was damaged.
func TestAuditCatchesReceiverMutations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(s *rxState)
		want   string
	}{
		{"corrupted nlive", func(s *rxState) { s.nlive++ }, "nlive="},
		{"skewed energy", func(s *rxState) { s.energy *= 1.001 }, "energy "},
		{"stale busy", func(s *rxState) { s.busy = !s.busy }, "busy="},
		{"drifted threshold copy", func(s *rxState) { s.csThresh *= 2 }, "csThresh"},
	} {
		sim, m, radios, _ := diffBed(tierMemo)
		sim.At(0, func() { radios[0].Transmit("a", 100, des.Millisecond) })
		sim.At(0, func() { radios[11].Transmit("b", 100, des.Millisecond) })
		sim.RunUntil(500 * des.Microsecond)
		if err := m.AuditCoherence(); err != nil {
			t.Fatalf("%s: clean mid-flight medium fails the audit: %v", tc.name, err)
		}
		s := &m.rx[5]
		if s.nlive != 2 || s.energy == 0 {
			t.Fatalf("%s: receiver 5 should hear both frames, has %+v", tc.name, *s)
		}
		tc.mutate(s)
		err := m.AuditCoherence()
		if err == nil || !strings.Contains(err.Error(), "receiver 5 "+tc.want) {
			t.Errorf("%s: audit returned %v, want a receiver 5 %q violation", tc.name, err, tc.want)
		}
	}
}

// idleListener ignores every callback (and so never allocates).
type idleListener struct{}

func (idleListener) RadioReceive(any, int, bool) {}
func (idleListener) RadioCarrier(bool)           {}
func (idleListener) RadioTxDone(any)             {}

// TestTransmitSteadyStateZeroAllocs pins the arrival path's allocation
// contract on the memo tier at grid225's geometry (every radio hears every
// other): once the audible set, the pooled transmission and the event
// free list are warm, a broadcast and its drain allocate nothing. The
// audit, run mid-flight with its scratch warm, allocates nothing either.
func TestTransmitSteadyStateZeroAllocs(t *testing.T) {
	sim := des.NewSim()
	m := NewMedium(sim, NewTwoRay(914e6, 1.5, 1.5))
	var centre *Radio
	for i, p := range geom.GridPlacement(geom.Square(2142.857), 15, 15) {
		r := m.Attach(p, DefaultParams())
		r.SetListener(idleListener{})
		if i == 112 {
			centre = r
		}
	}
	broadcast := func() {
		centre.Transmit(nil, 512, 2*des.Millisecond)
		sim.Run()
	}
	broadcast() // warm-up
	if got := len(m.aud[centre.id].rxID); got != 224 {
		t.Fatalf("centre radio reaches %d receivers, want all 224", got)
	}
	if allocs := testing.AllocsPerRun(50, broadcast); allocs != 0 {
		t.Errorf("steady-state transmit+drain allocates %v times per run, want 0", allocs)
	}

	centre.Transmit(nil, 512, 2*des.Millisecond)
	audit := func() {
		if err := m.AuditCoherence(); err != nil {
			t.Fatal(err)
		}
	}
	audit() // sizes the scratch
	if allocs := testing.AllocsPerRun(50, audit); allocs != 0 {
		t.Errorf("mid-flight audit allocates %v times per tick, want 0", allocs)
	}
	sim.Run()
}
