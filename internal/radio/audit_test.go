package radio

import (
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

// TestAuditCatchesReceiverMutations seeds one corruption of a receiver
// record — or of an in-flight frame's touched and skipped lists — at a
// time into a medium stopped with two frames on the air, and expects
// AuditCoherence to name exactly what was damaged. The touched list is the
// sender's audible set itself, so the mutation that reorders it is undone
// (it is its own inverse) and the medium must then audit clean and drain.
func TestAuditCatchesReceiverMutations(t *testing.T) {
	swapTouched := func(m *Medium) {
		hs := m.txOf[11].touched
		hs[0], hs[1] = hs[1], hs[0]
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *Medium)
		want   string
		undo   func(m *Medium)
	}{
		{"corrupted nlive", func(m *Medium) { m.rx[5].nlive++ }, "receiver 5 nlive=", nil},
		{"skewed energy", func(m *Medium) { m.rx[5].energy *= 1.001 }, "receiver 5 energy ", nil},
		{"stale busy", func(m *Medium) { m.rx[5].busy = !m.rx[5].busy }, "receiver 5 busy=", nil},
		{"drifted threshold copy", func(m *Medium) { m.rx[5].csThresh *= 2 }, "receiver 5 csThresh", nil},
		{"unsorted touched", swapTouched, "radio 11 touched list not strictly ID-sorted", swapTouched},
		{"copied touched", func(m *Medium) {
			m.txOf[11].touched = append([]heard(nil), m.txOf[11].touched...)
		}, "radio 11 touched list is not its audible set's storage", nil},
		{"skewed rxAcc", func(m *Medium) { m.rx[5].rxAcc += des.Millisecond }, "receiver 5 clock reads", nil},
		{"since in the future", func(m *Medium) { m.rx[5].since = m.sim.Now() + 1 }, "receiver 5 open clock interval", nil},
		{"skipped entry not in touched", func(m *Medium) {
			m.txOf[11].skipped = append(m.txOf[11].skipped, 11)
		}, "radio 11 skipped list entry 11", nil},
		{"skipped entry that was counted", func(m *Medium) {
			m.txOf[11].skipped = append(m.txOf[11].skipped, 5)
		}, "receiver 5 nlive=", nil},
	} {
		sim, m, radios, _ := diffBed(tierMemo)
		sim.At(0, func() { radios[0].Transmit("a", 100, des.Millisecond) })
		sim.At(0, func() { radios[11].Transmit("b", 100, des.Millisecond) })
		sim.RunUntil(500 * des.Microsecond)
		if err := m.AuditCoherence(); err != nil {
			t.Fatalf("%s: clean mid-flight medium fails the audit: %v", tc.name, err)
		}
		if s := &m.rx[5]; s.nlive != 2 || s.energy == 0 {
			t.Fatalf("%s: receiver 5 should hear both frames, has %+v", tc.name, *s)
		}
		tc.mutate(m)
		err := m.AuditCoherence()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit returned %v, want a %q violation", tc.name, err, tc.want)
		}
		if tc.undo != nil {
			tc.undo(m)
			sim.Run()
			if err := m.AuditCoherence(); err != nil || m.rx[5].nlive != 0 {
				t.Errorf("%s: after undoing it the medium does not drain clean: %v", tc.name, err)
			}
		}
	}
}

// idleListener ignores every callback (and so never allocates).
type idleListener struct{}

func (idleListener) RadioReceive(any, int, bool) {}
func (idleListener) RadioCarrier(bool)           {}
func (idleListener) RadioTxDone(any)             {}

// TestTransmitSteadyStateZeroAllocs pins the arrival path's allocation
// contract on both tiers at grid225's geometry (every radio hears every
// other): once the audible set's storage, the pooled transmission and the
// event free list are warm, a broadcast and its drain allocate nothing —
// the reference tier and a fading model rebuild the set, but into retained
// storage. The audit, run mid-flight with its scratch warm, allocates
// nothing either. Only the memo tier counts its builds.
func TestTransmitSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		prop         Propagation
		tier         mediumTier
		wantRebuilds uint64
	}{
		{"memo", NewTwoRay(914e6, 1.5, 1.5), tierMemo, 1},
		{"reference", NewTwoRay(914e6, 1.5, 1.5), tierReference, 0},
		{"nakagami", NewNakagami(NewTwoRay(914e6, 1.5, 1.5), 3, 10*des.Millisecond, 7), tierMemo, 0},
	} {
		sim := des.NewSim()
		m := NewMedium(sim, tc.prop)
		m.SetReference(tc.tier == tierReference)
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
		if got := len(m.aud[centre.id].heard); got != 224 {
			t.Fatalf("%s: centre radio reaches %d receivers, want all 224", tc.name, got)
		}
		if allocs := testing.AllocsPerRun(50, broadcast); allocs != 0 {
			t.Errorf("%s: steady-state transmit+drain allocates %v times per run, want 0", tc.name, allocs)
		}
		if got := m.AudibleRebuilds(); got != tc.wantRebuilds {
			t.Errorf("%s: %d audible rebuilds after 52 broadcasts from one radio, want %d", tc.name, got, tc.wantRebuilds)
		}

		centre.Transmit(nil, 512, 2*des.Millisecond)
		audit := func() {
			if err := m.AuditCoherence(); err != nil {
				t.Fatal(err)
			}
		}
		audit() // sizes the scratch
		if allocs := testing.AllocsPerRun(50, audit); allocs != 0 {
			t.Errorf("%s: mid-flight audit allocates %v times per tick, want 0", tc.name, allocs)
		}
		sim.Run()
	}
}
