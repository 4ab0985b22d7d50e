package radio

import (
	"fmt"
	"reflect"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

// mediumTier selects which transmit path a differential run exercises.
type mediumTier int

const (
	tierMemo      mediumTier = iota // audible-set memoisation (default)
	tierReference                   // exhaustive reference
)

// mediumOp is one step of a differential schedule. Illegal combinations
// (transmit while transmitting or down) are
// skipped at execution time based on live radio state; because the tiers
// are bit-identical, the guards resolve identically on each medium.
type mediumOp struct {
	kind  int // 0 transmit, 1 SetPos, 2 SetDown, 3 Attach, 4 arm a reaction, 5 WantCarrier
	radio int
	arg   int
}

// pushOracle is the push-model state clock internal/mac kept until the
// radio took it over — its energy meter and the load estimator's occupancy
// flag, the same logic verbatim: told of every carrier edge, of its radio's
// own tx start and end, and of crash and recovery, it integrates the time
// per state by itself. Radio.StateTimes must agree to the nanosecond.
type pushOracle struct {
	r           *Radio
	carrierBusy bool // what the edges delivered so far add up to
	cur         int  // 0 idle, 1 rx, 2 tx
	since       des.Time
	accum       [3]des.Time
}

// note re-derives the state, as Mac.noteRadioState did at every touchpoint.
func (o *pushOracle) note() {
	s := 0
	switch {
	case o.r.Transmitting():
		s = 2
	case o.carrierBusy:
		s = 1
	}
	if now := o.r.m.sim.Now(); s != o.cur {
		o.accum[o.cur] += now - o.since
		o.cur, o.since = s, now
	}
}

func (o *pushOracle) times() (idle, rx, tx des.Time) {
	t := o.accum
	t[o.cur] += o.r.m.sim.Now() - o.since
	return t[0], t[1], t[2]
}

// reactor is a recorder that can be armed (op kind 4) with a one-shot
// reaction run from inside its next RadioCarrier or RadioReceive callback
// — that is, from the middle of some other radio's arrival loop. It also
// runs the push-model oracle for its radio, and can opt out of carrier
// edges and back in (op kind 5) the way a MAC does.
type reactor struct {
	*recorder
	onCarrier, onReceive func()
	oracle               pushOracle
	everQuiet            bool // opted out at some point: the oracle missed edges, its integrals are void
	stray                int  // RadioCarrier calls received while quiet
}

// quiet reports whether the radio's listener has opted out of edges.
func (r *reactor) quiet() bool { return r.oracle.r.m.rx[r.oracle.r.id].quiet }

func newReactor(r *Radio, rec *recorder) *reactor {
	re := &reactor{recorder: rec, oracle: pushOracle{r: r}}
	r.SetListener(re)
	return re
}

// transmit puts a frame on the air unless the radio cannot send.
func (r *reactor) transmit(payload any, dur des.Time, scale float64) {
	if rd := r.oracle.r; !rd.Transmitting() && !rd.Down() {
		rd.TransmitRated(payload, 256, dur, scale)
		r.oracle.note()
	}
}

// setDown crashes or recovers the radio the way node.Node does: the
// listener is reset to an idle channel and learns of a busy one from the
// recovery's replay.
func (r *reactor) setDown(down bool) {
	r.oracle.r.SetDown(down)
	if down {
		r.oracle.carrierBusy = false
		r.oracle.note()
	}
}

// wantCarrier opts in or out. Opting back in reads the carrier flag, as a
// MAC does when a frame starts to contend.
func (r *reactor) wantCarrier(want bool) {
	r.oracle.r.WantCarrier(want)
	if !want {
		r.everQuiet = true
	} else if !r.oracle.r.Down() {
		r.oracle.carrierBusy = r.oracle.r.CarrierBusy()
	}
}

func (r *reactor) RadioTxDone(p any) {
	r.recorder.RadioTxDone(p)
	r.oracle.note()
}

func (r *reactor) RadioCarrier(busy bool) {
	r.recorder.RadioCarrier(busy)
	if r.quiet() {
		r.stray++
	}
	r.oracle.carrierBusy = busy
	r.oracle.note()
	if f := r.onCarrier; f != nil {
		r.onCarrier = nil
		f()
	}
}

func (r *reactor) RadioReceive(p any, bytes int, ok bool) {
	r.recorder.RadioReceive(p, bytes, ok)
	if f := r.onReceive; f != nil {
		r.onReceive = nil
		f()
	}
}

// opStride spaces scheduled ops so 1 ms transmissions overlap each other
// and the mutation ops land mid-flight.
const opStride = 250 * des.Microsecond

// diffBed builds the fixed 4×3 / 200 m two-ray deployment every
// differential test runs on. Dense enough that most radios interfere.
func diffBed(tier mediumTier) (*des.Sim, *Medium, []*Radio, []*recorder) {
	positions := make([]geom.Point, 0, 12)
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			positions = append(positions, geom.Point{X: float64(x) * 200, Y: float64(y) * 200})
		}
	}
	sim, m, radios, recs := testbed(DefaultParams(), positions...)
	m.SetReference(tier == tierReference)
	return sim, m, radios, recs
}

// runOps replays ops on a diffBed medium of the given tier and returns
// the medium and all listener logs (base radios plus any attached extras,
// in attach order). Every op is an event boundary with frames in flight,
// so the coherence audit and the state-clock checks (checkClocks) run
// before each one; once the queue drains every frame has finished, and
// each receiver must be back at exactly zero — the end state the arrival
// counter's clamp exists to guarantee.
func runOps(t *testing.T, tier mediumTier, ops []mediumOp) (*Medium, []*recorder) {
	t.Helper()
	sim, m, radios, recs := diffBed(tier)
	reactors := make([]*reactor, len(radios))
	for i, r := range radios {
		reactors[i] = newReactor(r, recs[i])
	}
	// checkClocks holds every radio's StateTimes to the conservation law
	// and to the push-model oracle (for a listener that never opted out),
	// and every listener that currently wants edges to having seen exactly
	// the ones CarrierBusy() went through.
	checkClocks := func(when string) {
		t.Helper()
		if _, err := m.AuditCoherence(true); err != nil {
			t.Fatalf("tier %d %s: %v", tier, when, err)
		}
		for id, re := range reactors {
			idle, rx, tx := radios[id].StateTimes()
			if idle < 0 || idle+rx+tx != sim.Now()-m.start {
				t.Fatalf("tier %d %s: radio %d state times %v+%v+%v do not add up to %v",
					tier, when, id, idle, rx, tx, sim.Now()-m.start)
			}
			if oi, or, ot := re.oracle.times(); !re.everQuiet && (idle != oi || rx != or || tx != ot) {
				t.Fatalf("tier %d %s: radio %d StateTimes idle %v rx %v tx %v, push-model oracle %v %v %v",
					tier, when, id, idle, rx, tx, oi, or, ot)
			}
			if re.stray != 0 {
				t.Fatalf("tier %d %s: radio %d got %d carrier edges after opting out", tier, when, id, re.stray)
			}
			if !re.quiet() && !radios[id].Down() && re.oracle.carrierBusy != radios[id].CarrierBusy() {
				t.Fatalf("tier %d %s: radio %d edges add up to busy=%v, CarrierBusy()=%v",
					tier, when, id, re.oracle.carrierBusy, radios[id].CarrierBusy())
			}
		}
	}
	for i, op := range ops {
		op := op
		sim.AtCall(des.Time(i+1)*opStride, des.Func(func() {
			checkClocks(fmt.Sprintf("before op %d", i))
			n := len(m.pos)
			if op.kind == 3 {
				// Attach a newcomer mid-run at a spot derived from arg.
				p := geom.Point{X: float64(op.arg%5) * 170, Y: 430 + float64(op.arg%3)*90}
				r := m.Attach(p, DefaultParams())
				rec := newReactor(r, &recorder{})
				radios = append(radios, r)
				recs = append(recs, rec.recorder)
				reactors = append(reactors, rec)
				return
			}
			r := radios[op.radio%n]
			re := reactors[r.id]
			transmit := func() {
				dur := des.Millisecond + des.Time(op.arg%7)*100*des.Microsecond
				re.transmit(r.id*1000+i, dur, 1+float64(op.arg%3))
			}
			switch op.kind {
			case 0:
				transmit()
			case 1:
				r.SetPos(geom.Point{
					X: float64((op.arg * 73) % 900),
					Y: float64((op.arg * 131) % 700),
				})
			case 2:
				re.setDown(op.arg%2 == 0)
			case 5:
				re.wantCarrier(op.arg%2 == 0)
			case 4:
				// From inside r's next carrier (even arg) or receive (odd
				// arg) callback, r itself transmits — or, every third
				// arg, crashes radio arg/6, which may be the sender whose
				// arrival loop is making the callback.
				react := transmit
				if op.arg%3 == 2 {
					victim := reactors[op.arg/6%n]
					react = func() { victim.setDown(true) }
				}
				if op.arg%2 == 0 {
					re.onCarrier = react
				} else {
					re.onReceive = react
				}
			}
		}), 0, 0)
	}
	sim.Run()
	checkClocks("after drain")
	for rx := range m.rx {
		if s := &m.rx[rx]; s.nlive != 0 || s.energy != 0 || s.busy || s.txing || s.cur.t != nil {
			t.Fatalf("tier %d receiver %d not quiescent after drain: %+v", tier, rx, *s)
		}
	}
	return m, recs
}

// compareLogs fails the test unless the memo and reference tiers' listener
// logs are bit-identical, radio by radio.
func compareLogs(t *testing.T, memo, ref []*recorder) {
	t.Helper()
	if len(ref) != len(memo) {
		t.Fatalf("reference tier attached %d radios, memo %d", len(ref), len(memo))
	}
	for i := range memo {
		if !reflect.DeepEqual(memo[i], ref[i]) {
			t.Fatalf("radio %d logs diverge:\n  memo      %+v\n  reference %+v", i, memo[i], ref[i])
		}
	}
}

// compareTiers replays ops on both tiers and fails the test unless every
// listener log and validation counter is bit-identical.
func compareTiers(t *testing.T, ops []mediumOp) (memo *Medium) {
	t.Helper()
	memo, memoRecs := runOps(t, tierMemo, ops)
	ref, refRecs := runOps(t, tierReference, ops)
	compareLogs(t, memoRecs, refRecs)
	if memo.Transmissions != ref.Transmissions ||
		memo.Deliveries != ref.Deliveries ||
		memo.Corruptions != ref.Corruptions ||
		memo.TxInFlightHW() != ref.TxInFlightHW() {
		t.Fatalf("counters diverge: memo tx=%d del=%d cor=%d hw=%d; reference tx=%d del=%d cor=%d hw=%d",
			memo.Transmissions, memo.Deliveries, memo.Corruptions, memo.TxInFlightHW(),
			ref.Transmissions, ref.Deliveries, ref.Corruptions, ref.TxInFlightHW())
	}
	return memo
}

// TestMobilityInvalidationTorture interleaves every invalidation source —
// motion, crash/recover, mid-run attach — with overlapping
// rated transmissions from all over the deployment and requires the
// memoised and reference paths to observe bit-identical event logs and
// counters, a clean coherence audit at every op, and every receiver back
// at nlive == 0, energy == 0, !busy once the air is clear (all three
// checked per tier by runOps).
func TestMobilityInvalidationTorture(t *testing.T) {
	var ops []mediumOp
	for round := 0; round < 30; round++ {
		for r := 0; r < 12; r += 3 {
			ops = append(ops, mediumOp{kind: 0, radio: r + round%3, arg: round + r})
		}
		switch round % 4 {
		case 0:
			ops = append(ops, mediumOp{kind: 1, radio: round, arg: round * 37})
		case 1:
			ops = append(ops, mediumOp{kind: 2, radio: round, arg: round})
			ops = append(ops, mediumOp{kind: 2, radio: round + 1, arg: round + 1})
		case 2:
			ops = append(ops, mediumOp{kind: 3, radio: 0, arg: round})
		case 3:
			// Quiet round: memoised sets must be reused, not rebuilt.
		}
	}
	memo := compareTiers(t, ops)
	if memo.AudibleRebuilds() == 0 {
		t.Fatal("torture run never built an audible set — memoisation was not exercised")
	}
	if memo.Transmissions == 0 || memo.Deliveries == 0 || memo.Corruptions == 0 {
		t.Fatalf("torture run too tame: tx=%d del=%d cor=%d — thresholds not exercised",
			memo.Transmissions, memo.Deliveries, memo.Corruptions)
	}
}

// TestReentrantTransmitFromCallbacks has a different radio transmit from
// inside the carrier callback of radio 0's arrival loop (radio 5) and from
// inside the receive callback of its finish loop (radio 1). On the
// reference tier the per-radio audible set doubles as the scan buffer, so
// a nested transmission rebuilds one set while another is being walked
// (and on both tiers the frame in flight walks that set in place, not a
// copy); the tiers must still agree bit for bit.
func TestReentrantTransmitFromCallbacks(t *testing.T) {
	memo := compareTiers(t, []mediumOp{
		{kind: 4, radio: 5, arg: 0},
		{kind: 4, radio: 1, arg: 1},
		{kind: 0, radio: 0, arg: 0},
	})
	if memo.Transmissions != 3 {
		t.Fatalf("%d transmissions, want 3: the armed radios did not transmit from their callbacks", memo.Transmissions)
	}
}

// TestSenderCrashedFromCallback pins the rule that a frame's touched list
// is in place before the first callback of its arrival loop: radio 5's
// carrier callback crashes the sender, radio 0, mid-loop, and SetDown
// must find the receivers already locked onto the frame (1 and 4, visited
// before 5) to corrupt it there — and no others, though the list (the
// whole audible set) already names the receivers the loop has yet to visit.
func TestSenderCrashedFromCallback(t *testing.T) {
	ops := []mediumOp{{kind: 4, radio: 5, arg: 2}, {kind: 0, radio: 0, arg: 0}}
	compareTiers(t, ops)
	for tier := tierMemo; tier <= tierReference; tier++ {
		m, recs := runOps(t, tier, ops)
		if !m.rx[0].down || m.Corruptions != 2 || m.Deliveries != 0 {
			t.Fatalf("tier %d: sender down=%v, %d corruptions, %d deliveries; want down, 2, 0",
				tier, m.rx[0].down, m.Corruptions, m.Deliveries)
		}
		for _, rx := range []int{1, 4} {
			if got := recs[rx].received; len(got) != 1 || got[0].ok {
				t.Fatalf("tier %d: receiver %d got %+v, want the one truncated frame, corrupted", tier, rx, got)
			}
		}
	}
}

// TestAudibleSetsMemoise pins the memoisation effectiveness contract:
// a steady-state schedule builds each transmitter's set exactly once,
// crash/recover does not invalidate, and any epoch bump (SetPos,
// Attach, Reset) rebuilds lazily on next transmit.
func TestAudibleSetsMemoise(t *testing.T) {
	sim, m, radios, _ := diffBed(tierMemo)
	tx := func(at des.Time, r *Radio) {
		sim.AtCall(at, des.Func(func() { r.Transmit("x", 100, des.Millisecond) }), 0, 0)
	}
	for i := 0; i < 10; i++ {
		tx(des.Time(i)*2*des.Millisecond, radios[0])
		tx(des.Time(i)*2*des.Millisecond, radios[5])
	}
	sim.Run()
	if got := m.AudibleRebuilds(); got != 2 {
		t.Fatalf("steady state rebuilt %d sets, want 2 (one per transmitter)", got)
	}

	// Crash/recover: no epoch bump, no rebuild.
	sim.AtCall(sim.Now()+des.Millisecond, des.Func(func() { radios[3].SetDown(true) }), 0, 0)
	sim.AtCall(sim.Now()+2*des.Millisecond, des.Func(func() { radios[3].SetDown(false) }), 0, 0)
	tx(sim.Now()+3*des.Millisecond, radios[0])
	sim.Run()
	if got := m.AudibleRebuilds(); got != 2 {
		t.Fatalf("crash/recover invalidated audible sets: %d rebuilds, want 2", got)
	}

	// Motion bumps the epoch: the next transmit from each radio rebuilds.
	sim.AtCall(sim.Now()+des.Millisecond, des.Func(func() { radios[7].SetPos(geom.Point{X: 55, Y: 55}) }), 0, 0)
	tx(sim.Now()+2*des.Millisecond, radios[0])
	tx(sim.Now()+5*des.Millisecond, radios[0]) // second transmit reuses
	sim.Run()
	if got := m.AudibleRebuilds(); got != 3 {
		t.Fatalf("after SetPos: %d rebuilds, want 3", got)
	}

	// Reset restarts the diagnostic and invalidates everything.
	positions := make([]geom.Point, len(m.pos))
	for i, r := range radios {
		positions[i] = r.m.pos[r.id]
	}
	m.Reset(NewTwoRay(914e6, 1.5, 1.5), positions)
	if got := m.AudibleRebuilds(); got != 0 {
		t.Fatalf("AudibleRebuilds %d after Reset, want 0", got)
	}
	tx(sim.Now()+des.Millisecond, radios[0])
	sim.Run()
	if got := m.AudibleRebuilds(); got != 1 {
		t.Fatalf("post-Reset transmit rebuilt %d sets, want 1", got)
	}
}

// TestAudibleSetExcludesWeak checks set membership directly: the
// tracking floor and ID-sorted order.
func TestAudibleSetExcludesWeak(t *testing.T) {
	sim, m, radios, _ := testbed(DefaultParams(),
		geom.Point{X: 0},     // transmitter
		geom.Point{X: 200},   // audible
		geom.Point{X: 400},   // audible (CS range)
		geom.Point{X: 20000}) // below tracking floor → excluded
	sim.AtCall(0, des.Func(func() { radios[0].Transmit("x", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	a := &m.aud[0]
	if a.epoch != m.audEpoch {
		t.Fatal("audible set not built by transmit")
	}
	if len(a.heard) != 2 || a.heard[0].rx != 1 || a.heard[1].rx != 2 {
		t.Fatalf("audible set %+v, want receivers 1 and 2", a.heard)
	}
	for _, h := range a.heard {
		if p := m.RxPowerBetween(0, int(h.rx)); p != h.power {
			t.Fatalf("memoised power for rx %d is %g, direct %g", h.rx, h.power, p)
		}
		if ok := h.power >= DefaultParams().RxThreshW; ok != h.refOK {
			t.Fatalf("refOK=%v for rx %d inconsistent with power %g", h.refOK, h.rx, h.power)
		}
	}
}

// lineMedium builds n radios spaced along the x axis under log-distance
// exp-3 propagation (~80.7 m receive, ~2680 m trackable at default power).
func lineMedium(n int, spacing float64) (*des.Sim, *Medium, []*Radio, []*recorder) {
	sim := des.NewSim()
	m := NewMedium(sim, NewLogDistance(914e6, 3.0, 1.0, 0, 1))
	radios := make([]*Radio, n)
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		radios[i] = m.Attach(geom.Point{X: float64(i) * spacing}, DefaultParams())
		recs[i] = &recorder{}
		radios[i].SetListener(recs[i])
	}
	return sim, m, radios, recs
}

// wideDelivery runs two rounds of a staggered, overlapping all-nodes
// transmission schedule over a 9.73 km line (140 × 70 m: neighbours
// decode, three each side sense carrier, 38 each side are tracked, the
// rest are below the floor), with optional mid-run motion: ten radios hop
// a few hundred metres and the far-end radio jumps across the whole field,
// so members leave and join audible sets between frames. It returns every
// listener's log.
func wideDelivery(reference, mobile bool) (*Medium, []*recorder) {
	sim, m, radios, recs := lineMedium(140, 70)
	m.SetReference(reference)
	for round := 0; round < 2; round++ {
		for i := range radios {
			// Overlapping senders are three radios apart: the receiver
			// between them loses the frame, the one outside keeps it.
			r := radios[i*3%len(radios)]
			sim.AtCall(des.Time(round*len(radios)+i)*des.Millisecond/2, des.Func(func() {
				r.Transmit(r.id, 512, des.Millisecond)
			}), 0, 0)
		}
	}
	if mobile {
		for k := 0; k < 10; k++ {
			r := radios[k*13]
			dx := float64(k+1) * 300
			sim.AtCall(des.Time(3*k+1)*des.Millisecond, des.Func(func() {
				r.SetPos(geom.Point{X: r.m.pos[r.id].X + dx, Y: 5})
			}), 0, 0)
		}
		sim.AtCall(40*des.Millisecond, des.Func(func() { radios[139].SetPos(geom.Point{X: 0, Y: 10}) }), 0, 0)
	}
	sim.Run()
	return m, recs
}

// TestReferenceMatchesMemoOnWideDeployment replays the same transmission
// schedule on the memoised path and the exhaustive reference path over a
// deployment far wider than the trackable range — static and with mid-run
// motion — and requires every listener to observe the identical event log.
func TestReferenceMatchesMemoOnWideDeployment(t *testing.T) {
	for _, mobile := range []bool{false, true} {
		memo, memoRecs := wideDelivery(false, mobile)
		_, refRecs := wideDelivery(true, mobile)
		compareLogs(t, memoRecs, refRecs)
		// The tracking floor must be cutting sets down, frames must get
		// through, and the cross-field mover must end up in radio 0's set.
		if n := len(memo.aud[70].heard); n < 70 || n > 90 {
			t.Fatalf("mobile=%v: radio 70 hears %d of %d radios; want the 76 or so within 2680 m",
				mobile, n, len(memo.pos)-1)
		}
		if memo.Deliveries == 0 || memo.Corruptions == 0 {
			t.Fatalf("mobile=%v: %d deliveries, %d corruptions — schedule too tame",
				mobile, memo.Deliveries, memo.Corruptions)
		}
		hs := memo.aud[0].heard
		if got := hs[len(hs)-1].rx == 139; got != mobile {
			t.Fatalf("mobile=%v: radio 139 in radio 0's audible set: %v", mobile, got)
		}
	}
}
