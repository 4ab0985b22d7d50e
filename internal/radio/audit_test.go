package radio

import (
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/fault"
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
		sim.AtCall(0, des.Func(func() { radios[0].Transmit("a", 100, des.Millisecond) }), 0, 0)
		sim.AtCall(0, des.Func(func() { radios[11].Transmit("b", 100, des.Millisecond) }), 0, 0)
		sim.RunUntil(500 * des.Microsecond)
		if _, err := m.AuditCoherence(true); err != nil {
			t.Fatalf("%s: clean mid-flight medium fails the audit: %v", tc.name, err)
		}
		if s := &m.rx[5]; s.nlive != 2 || s.energy == 0 {
			t.Fatalf("%s: receiver 5 should hear both frames, has %+v", tc.name, *s)
		}
		tc.mutate(m)
		_, err := m.AuditCoherence(true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit returned %v, want a %q violation", tc.name, err, tc.want)
		}
		if tc.undo != nil {
			tc.undo(m)
			sim.Run()
			if _, err := m.AuditCoherence(true); err != nil || m.rx[5].nlive != 0 {
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
		sim, m, radios := idleGrid(tc.prop, 2142.857, 15)
		m.SetReference(tc.tier == tierReference)
		centre := radios[112]
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
			for _, full := range [2]bool{true, false} {
				if _, err := m.AuditCoherence(full); err != nil {
					t.Fatal(err)
				}
			}
		}
		audit() // sizes the scratch
		if allocs := testing.AllocsPerRun(50, audit); allocs != 0 {
			t.Errorf("%s: mid-flight audit allocates %v times per tick, want 0", tc.name, allocs)
		}
		sim.Run()
	}
}

// TestRebuildSteadyStateZeroAllocs is the write side of
// TestTransmitSteadyStateZeroAllocs: on a warm medium a move (every audible
// set invalidated) followed by the mover's broadcast — one propagation row
// into the scratch row, the set rebuilt into its retained storage — and
// the drain allocate nothing, under each model.
func TestRebuildSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range rebuildModels() {
		name, prop := tc.name, tc.prop
		sim, m, radios := idleGrid(prop, 1428.57, 10)
		centre := radios[55]
		home := centre.m.pos[centre.id]
		step := 0
		moveAndBroadcast := func() {
			step++
			centre.SetPos(geom.Point{X: home.X + 0.01*float64(step%2), Y: home.Y})
			centre.Transmit(nil, 512, 2*des.Millisecond)
			sim.Run()
		}
		moveAndBroadcast() // warm-up
		before := m.AudibleRebuilds()
		if allocs := testing.AllocsPerRun(50, moveAndBroadcast); allocs != 0 {
			t.Errorf("%s: steady-state move+transmit+drain allocates %v times per run, want 0", name, allocs)
		}
		if prop.TimeInvariant() && m.AudibleRebuilds()-before != 51 {
			t.Errorf("%s: %d memo rebuilds over 51 moves, want one each", name, m.AudibleRebuilds()-before)
		}
	}
}

// TestWarmImpairmentReuseAllocatesNothing: Reset disarms the link model but
// keeps its N² memo, so the Reset + SetImpairment cycle of a warm engine
// allocates nothing, and the re-armed model decides every probe as a cold
// model with the same seed does — whatever an earlier run left in the memo.
func TestWarmImpairmentReuseAllocatesNothing(t *testing.T) {
	var prop Propagation = NewTwoRay(914e6, 1.5, 1.5) // boxed once, not per Reset
	pts := geom.GridPlacement(geom.Square(1000), 7, 7)
	m := NewMedium(des.NewSim(), prop)
	for _, p := range pts {
		m.Attach(p, DefaultParams()).SetListener(idleListener{})
	}
	link := fault.LinkParams{MeanGood: 200 * des.Millisecond, MeanBad: 100 * des.Millisecond, LossBad: 0.8, LossGood: 0.05}
	m.SetImpairment(link, 1)
	for i := 0; i < len(pts); i++ { // a first run leaves chains mid-way
		m.impair.Deliver(i, (i+1)%len(pts), des.Time(i)*des.Second)
	}
	m.Reset(prop, pts)
	if m.impaired {
		t.Fatal("Reset left the link impairment armed")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		m.Reset(prop, pts)
		m.SetImpairment(link, 2)
	}); allocs != 0 {
		t.Errorf("warm Reset + SetImpairment allocates %v times, want 0", allocs)
	}
	cold := fault.NewLinkModel(link, 2, len(pts))
	for k := 0; k < 4000; k++ {
		src, dst, now := k%len(pts), (k*7+3)%len(pts), des.Time(k)*3*des.Millisecond
		if got, want := m.impair.Deliver(src, dst, now), cold.Deliver(src, dst, now); got != want {
			t.Fatalf("probe %d (%d->%d at %v): warm model delivers %v, cold model %v", k, src, dst, now, got, want)
		}
	}
	m.SetImpairment(fault.LinkParams{}, 3)
	if m.impaired {
		t.Fatal("disabled parameters left the link impairment armed")
	}
}

// idleGrid attaches n×n radios with idle listeners on a grid over a square
// of side areaM: 15×15 over 2142.857 m is grid225's field, 10×10 over
// 1428.57 m mobile100's.
func idleGrid(prop Propagation, areaM float64, n int) (*des.Sim, *Medium, []*Radio) {
	sim := des.NewSim()
	m := NewMedium(sim, prop)
	var radios []*Radio
	for _, p := range geom.GridPlacement(geom.Square(areaM), n, n) {
		r := m.Attach(p, DefaultParams())
		r.SetListener(idleListener{})
		radios = append(radios, r)
	}
	return sim, m, radios
}

// rebuildModels are the propagation models the rebuild test and benchmark
// cover: the memoised default, per-link shadowing (memoised too) and
// fading, which rebuilds on every transmission anyway.
func rebuildModels() []struct {
	name string
	prop Propagation
} {
	tworay := NewTwoRay(914e6, 1.5, 1.5)
	return []struct {
		name string
		prop Propagation
	}{
		{"tworay", tworay},
		{"logdistance", NewLogDistance(914e6, 2.7, 1, 4, 7)},
		{"nakagami", NewNakagami(tworay, 3, 10*des.Millisecond, 7)},
	}
}

// BenchmarkAudibleRebuild is the in-module twin of the repository
// benchmark's radio.rebuild_ns: move one transmitter 1 cm, transmit, drain
// — one buildAudible over mobile100's 100 radios per iteration.
func BenchmarkAudibleRebuild(b *testing.B) {
	for _, tc := range rebuildModels() {
		b.Run(tc.name, func(b *testing.B) {
			sim, _, radios := idleGrid(tc.prop, 1428.57, 10)
			centre := radios[55]
			home := centre.m.pos[centre.id]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				centre.SetPos(geom.Point{X: home.X + 0.01*float64(i%2), Y: home.Y})
				centre.Transmit(nil, 512, 2*des.Millisecond)
				sim.Run()
			}
		})
	}
}

// referenceAuditSets is the audible-set leg of AuditCoherence as a full
// walk: every set at the current epoch, at every call.
func referenceAuditSets(m *Medium) error {
	n := len(m.pos)
	for id := 0; id < n; id++ {
		a := &m.aud[id]
		if a.epoch != m.audEpoch {
			continue // stale or never built: rebuilt lazily, contents unused
		}
		if err := auditHeard(id, "audible set", a.heard, n); err != nil {
			return err
		}
	}
	return nil
}

// TestAuditChecksEachAudibleBuildOnce: an audit that is not full checks an
// audible set once per build, so a rebuilt set — even one built wrong —
// is checked at the next call and a set nobody rebuilt is not checked
// again. A set damaged in place, bypassing buildAudible, is left to the
// full audit, which finds what the full walk finds.
func TestAuditChecksEachAudibleBuildOnce(t *testing.T) {
	sim, m, radios := idleGrid(NewTwoRay(914e6, 1.5, 1.5), 1428.57, 10)
	broadcast := func(r *Radio) {
		r.Transmit(nil, 512, 2*des.Millisecond)
		sim.Run()
	}
	audit := func(full bool, wantSets int) error {
		t.Helper()
		sets, err := m.AuditCoherence(full)
		if sets != wantSets {
			t.Errorf("AuditCoherence(%v) checked %d audible sets, want %d", full, sets, wantSets)
		}
		return err
	}
	for _, r := range radios {
		broadcast(r)
	}
	if err := audit(true, 100); err != nil {
		t.Fatal(err)
	}
	if err := audit(false, 0); err != nil {
		t.Fatal(err)
	}

	// A move invalidates every set; only the mover's is rebuilt, by its
	// next transmission, and checked once.
	centre := radios[55]
	home := centre.m.pos[centre.id]
	centre.SetPos(geom.Point{X: home.X + 1, Y: home.Y})
	broadcast(centre)
	if err := audit(false, 1); err != nil {
		t.Fatal(err)
	}
	if err := audit(false, 0); err != nil {
		t.Fatal(err)
	}

	// A bad build is caught by the next call.
	broadcast(radios[3])
	hs := m.aud[3].heard
	hs[0], hs[1] = hs[1], hs[0]
	if err := audit(false, 0); err == nil || !strings.Contains(err.Error(), "radio 3 audible set not strictly ID-sorted") {
		t.Errorf("rebuilt, unsorted set: audit returned %v", err)
	}
	hs[0], hs[1] = hs[1], hs[0]
	if err := audit(false, 1); err != nil {
		t.Fatal(err)
	}

	// Damage in place, without a rebuild, is the full audit's to find.
	hs = m.aud[55].heard
	hs[0], hs[1] = hs[1], hs[0]
	if err := audit(false, 0); err != nil {
		t.Errorf("a set checked before and not rebuilt since was checked again: %v", err)
	}
	want := referenceAuditSets(m)
	if err := audit(true, 1); err == nil || want == nil || err.Error() != want.Error() { // radio 3's set, then 55's fails
		t.Errorf("full audit returned %v, the full walk %v", err, want)
	}
	hs[0], hs[1] = hs[1], hs[0]
	if err := audit(true, 2); err != nil || referenceAuditSets(m) != nil {
		t.Fatal(err)
	}
}
