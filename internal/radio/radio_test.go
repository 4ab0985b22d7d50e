package radio

import (
	"math"
	"testing"
	"testing/quick"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

type recvEvent struct {
	payload any
	bytes   int
	ok      bool
}

// recorder is a Listener that logs everything.
type recorder struct {
	received []recvEvent
	carrier  []bool
	txDone   []any
}

func (r *recorder) RadioReceive(p any, bytes int, ok bool) {
	r.received = append(r.received, recvEvent{p, bytes, ok})
}
func (r *recorder) RadioCarrier(busy bool) { r.carrier = append(r.carrier, busy) }
func (r *recorder) RadioTxDone(p any)      { r.txDone = append(r.txDone, p) }

// testbed wires n radios at the given positions into one medium.
func testbed(params Params, positions ...geom.Point) (*des.Sim, *Medium, []*Radio, []*recorder) {
	sim := des.NewSim()
	m := NewMedium(sim, NewTwoRay(914e6, 1.5, 1.5))
	radios := make([]*Radio, len(positions))
	recs := make([]*recorder, len(positions))
	for i, p := range positions {
		radios[i] = m.Attach(p, params)
		recs[i] = &recorder{}
		radios[i].SetListener(recs[i])
	}
	return sim, m, radios, recs
}

func TestTwoRayCanonicalRanges(t *testing.T) {
	prop := NewTwoRay(914e6, 1.5, 1.5)
	p := DefaultParams()
	at := func(d float64) float64 {
		return RxPower(prop, p.TxPowerW, geom.Point{}, geom.Point{X: d}, 0)
	}
	if at(250) < p.RxThreshW {
		t.Fatalf("250 m power %.4g below RX threshold %.4g", at(250), p.RxThreshW)
	}
	if at(255) >= p.RxThreshW {
		t.Fatalf("255 m power %.4g not below RX threshold", at(255))
	}
	if at(550) < p.CsThreshW {
		t.Fatalf("550 m power %.4g below CS threshold %.4g", at(550), p.CsThreshW)
	}
	if at(560) >= p.CsThreshW {
		t.Fatalf("560 m power %.4g not below CS threshold", at(560))
	}
}

func TestFreeSpaceInverseSquare(t *testing.T) {
	f := NewFreeSpace(2.4e9)
	p1 := RxPower(f, 1, geom.Point{}, geom.Point{X: 100}, 0)
	p2 := RxPower(f, 1, geom.Point{}, geom.Point{X: 200}, 0)
	if math.Abs(p1/p2-4) > 1e-9 {
		t.Fatalf("free space not inverse-square: ratio %v", p1/p2)
	}
	if co := RxPower(f, 1, geom.Point{}, geom.Point{}, 0); co != 1 {
		t.Fatalf("co-located power %v", co)
	}
}

func TestTwoRayContinuousEnough(t *testing.T) {
	// At the crossover distance the two branches should agree to within a
	// small factor (the classic model has a small step; verify it's small).
	tr := NewTwoRay(914e6, 1.5, 1.5)
	d := tr.Crossover()
	near := RxPower(tr.FreeSpace, 1, geom.Point{}, geom.Point{X: d * 0.999}, 0)
	far := RxPower(tr, 1, geom.Point{}, geom.Point{X: d * 1.001}, 0)
	ratio := near / far
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("two-ray branch discontinuity ratio %v at crossover %v m", ratio, d)
	}
}

func TestTwoRayMonotoneDecreasing(t *testing.T) {
	tr := NewTwoRay(914e6, 1.5, 1.5)
	prev := math.Inf(1)
	for d := 10.0; d < 1000; d += 10 {
		p := RxPower(tr, 1, geom.Point{}, geom.Point{X: d}, 0)
		if p > prev {
			t.Fatalf("power increased with distance at %v m", d)
		}
		prev = p
	}
}

func TestLogDistanceShadowingSymmetricDeterministic(t *testing.T) {
	l := NewLogDistance(2.4e9, 3.0, 1.0, 6.0, 42)
	a := geom.Point{X: 10, Y: 20}
	b := geom.Point{X: 300, Y: 40}
	p1 := RxPower(l, 0.1, a, b, 0)
	p2 := RxPower(l, 0.1, b, a, 0)
	if p1 != p2 {
		t.Fatalf("shadowed link asymmetric: %v vs %v", p1, p2)
	}
	if p1 != RxPower(l, 0.1, a, b, 0) {
		t.Fatal("shadowed link not deterministic")
	}
	l2 := NewLogDistance(2.4e9, 3.0, 1.0, 6.0, 43)
	if RxPower(l2, 0.1, a, b, 0) == p1 {
		t.Fatal("different seeds gave identical shadowing")
	}
}

func TestLogDistanceNoShadowingExponent(t *testing.T) {
	l := NewLogDistance(2.4e9, 4.0, 1.0, 0, 0)
	p1 := RxPower(l, 1, geom.Point{}, geom.Point{X: 10}, 0)
	p2 := RxPower(l, 1, geom.Point{}, geom.Point{X: 100}, 0)
	// 10x distance at exponent 4 → 40 dB → factor 1e4.
	if math.Abs(p1/p2-1e4) > 1 {
		t.Fatalf("log-distance exponent wrong: ratio %v", p1/p2)
	}
}

func TestCleanDelivery(t *testing.T) {
	sim, m, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("hello", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	if len(recs[1].received) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(recs[1].received))
	}
	got := recs[1].received[0]
	if !got.ok || got.payload != "hello" || got.bytes != 100 {
		t.Fatalf("bad delivery %+v", got)
	}
	if len(recs[0].txDone) != 1 || recs[0].txDone[0] != "hello" {
		t.Fatalf("sender txDone %+v", recs[0].txDone)
	}
	if m.Deliveries != 1 {
		t.Fatalf("medium deliveries %d", m.Deliveries)
	}
}

func TestOutOfRangeNoDelivery(t *testing.T) {
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 300})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("x", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	if len(recs[1].received) != 0 {
		t.Fatalf("out-of-range receiver got %d frames", len(recs[1].received))
	}
}

func TestCarrierSenseBeyondRxRange(t *testing.T) {
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 400})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("x", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	if len(recs[1].received) != 0 {
		t.Fatal("node at 400 m decoded a frame")
	}
	if len(recs[1].carrier) != 2 || !recs[1].carrier[0] || recs[1].carrier[1] {
		t.Fatalf("carrier transitions %v, want [true false]", recs[1].carrier)
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	// Two senders equidistant from the receiver transmit simultaneously:
	// comparable powers → no capture → the locked frame is corrupted.
	sim, m, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 400}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("a", 100, des.Millisecond) }), 0, 0)
	sim.ScheduleCall(0, des.Func(func() { radios[1].Transmit("b", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	okCount := 0
	for _, e := range recs[2].received {
		if e.ok {
			okCount++
		}
	}
	if okCount != 0 {
		t.Fatalf("collision delivered %d frames intact", okCount)
	}
	if m.Corruptions == 0 {
		t.Fatal("medium recorded no corruption")
	}
}

func TestCaptureStrongFrameSurvives(t *testing.T) {
	// Receiver at origin; strong sender 50 m away, weak interferer 240 m
	// away. Two-ray: P(50)/P(240) far exceeds the 10 dB capture ratio, so
	// the strong frame survives the overlap.
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0},    // receiver
		geom.Point{X: 50},   // strong sender
		geom.Point{X: -240}) // weak interferer
	sim.ScheduleCall(0, des.Func(func() { radios[1].Transmit("strong", 100, des.Millisecond) }), 0, 0)
	sim.ScheduleCall(0, des.Func(func() { radios[2].Transmit("weak", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	var okPayloads []any
	for _, e := range recs[0].received {
		if e.ok {
			okPayloads = append(okPayloads, e.payload)
		}
	}
	if len(okPayloads) != 1 || okPayloads[0] != "strong" {
		t.Fatalf("capture failed: ok deliveries %v", okPayloads)
	}
}

func TestLateInterferenceCorruptsLockedFrame(t *testing.T) {
	// Interferer starts mid-reception: the locked frame must still be lost
	// (corruption latches even though the preamble was clean).
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: -200})
	sim.ScheduleCall(0, des.Func(func() { radios[1].Transmit("victim", 100, des.Millisecond) }), 0, 0)
	sim.ScheduleCall(des.Millisecond/2, des.Func(func() { radios[2].Transmit("late", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	for _, e := range recs[0].received {
		if e.ok {
			t.Fatalf("frame %v delivered intact despite mid-frame collision", e.payload)
		}
	}
}

func TestHalfDuplexNoReceiveWhileTransmitting(t *testing.T) {
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("mine", 100, 2*des.Millisecond) }), 0, 0)
	sim.ScheduleCall(des.Microsecond, des.Func(func() { radios[1].Transmit("theirs", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	for _, e := range recs[0].received {
		if e.ok {
			t.Fatal("half-duplex radio decoded a frame while transmitting")
		}
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	sim, _, radios, _ := testbed(DefaultParams(), geom.Point{X: 0})
	sim.ScheduleCall(0, des.Func(func() {
		radios[0].Transmit("a", 10, des.Millisecond)
		defer func() {
			if recover() == nil {
				t.Error("second Transmit did not panic")
			}
		}()
		radios[0].Transmit("b", 10, des.Millisecond)
	}), 0, 0)
	sim.Run()
}

func TestHiddenTerminal(t *testing.T) {
	// Make CS range equal RX range so the two outer nodes cannot hear each
	// other but both reach the middle: the classic hidden-terminal loss.
	params := DefaultParams()
	params.CsThreshW = params.RxThreshW
	sim, _, radios, recs := testbed(params,
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 400})
	if radios[0].m.InRange(0, 2) {
		t.Fatal("outer nodes unexpectedly in range")
	}
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("left", 100, des.Millisecond) }), 0, 0)
	sim.ScheduleCall(des.Microsecond*10, des.Func(func() { radios[2].Transmit("right", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	for _, e := range recs[1].received {
		if e.ok {
			t.Fatalf("middle node decoded %v despite hidden-terminal collision", e.payload)
		}
	}
}

func TestSequentialTransmissionsBothDelivered(t *testing.T) {
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("first", 100, des.Millisecond) }), 0, 0)
	sim.ScheduleCall(2*des.Millisecond, des.Func(func() { radios[0].Transmit("second", 100, des.Millisecond) }), 0, 0)
	sim.Run()
	if len(recs[1].received) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(recs[1].received))
	}
	for _, e := range recs[1].received {
		if !e.ok {
			t.Fatalf("sequential frame %v corrupted", e.payload)
		}
	}
}

func TestCarrierClearsAfterOverlap(t *testing.T) {
	// Overlapping transmissions: the carrier at an observer must go busy
	// once and clear only after the last one ends.
	sim, _, radios, recs := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 300}, geom.Point{X: 150})
	sim.ScheduleCall(0, des.Func(func() { radios[0].Transmit("a", 100, des.Millisecond) }), 0, 0)
	sim.ScheduleCall(des.Millisecond/2, des.Func(func() { radios[1].Transmit("b", 100, des.Millisecond) }), 0, 0)
	var clearedAt des.Time
	sim.ScheduleCall(10*des.Millisecond, des.Func(func() {
		for i, c := range recs[2].carrier {
			_ = i
			_ = c
		}
	}), 0, 0)
	sim.Run()
	// Final carrier state must be idle.
	if len(recs[2].carrier) == 0 || recs[2].carrier[len(recs[2].carrier)-1] {
		t.Fatalf("carrier history %v does not end idle", recs[2].carrier)
	}
	_ = clearedAt
	// Exactly one busy→idle cycle despite two overlapping frames.
	transitions := 0
	for _, c := range recs[2].carrier {
		if c {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("carrier went busy %d times, want 1 (continuous busy period)", transitions)
	}
}

// Property: RxPower is non-increasing in distance for all three models.
func TestQuickPropagationMonotone(t *testing.T) {
	models := []Propagation{
		NewFreeSpace(2.4e9),
		NewTwoRay(914e6, 1.5, 1.5),
		NewLogDistance(2.4e9, 3.5, 1.0, 0, 0),
	}
	f := func(d1, d2 float64) bool {
		a := math.Abs(math.Mod(d1, 2000)) + 1
		b := math.Abs(math.Mod(d2, 2000)) + 1
		if a > b {
			a, b = b, a
		}
		for _, m := range models {
			pa := RxPower(m, 1, geom.Point{}, geom.Point{X: a}, 0)
			pb := RxPower(m, 1, geom.Point{}, geom.Point{X: b}, 0)
			if pb > pa*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransmit49Nodes(b *testing.B) {
	sim := des.NewSim()
	m := NewMedium(sim, NewTwoRay(914e6, 1.5, 1.5))
	var radios []*Radio
	for _, p := range geom.GridPlacement(geom.Square(1400), 7, 7) {
		r := m.Attach(p, DefaultParams())
		r.SetListener(&recorder{})
		radios = append(radios, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := radios[i%len(radios)]
		sim.ScheduleCall(0, des.Func(func() { r.Transmit("x", 512, 2*des.Millisecond) }), 0, 0)
		sim.Run()
	}
}

func TestNakagamiUnitMean(t *testing.T) {
	// Averaged over many coherence slots, the fading multiplier has unit
	// mean: the long-run mean received power matches the base model.
	base := NewTwoRay(914e6, 1.5, 1.5)
	nak := NewNakagami(base, 3, des.Millisecond, 7)
	a, b := geom.Point{X: 0}, geom.Point{X: 150}
	want := RxPower(base, 1, a, b, 0)
	sum := 0.0
	const slots = 20000
	for i := 0; i < slots; i++ {
		sum += RxPower(nak, 1, a, b, des.Time(i)*des.Millisecond)
	}
	mean := sum / slots
	if mean < 0.95*want || mean > 1.05*want {
		t.Fatalf("faded mean %.3g vs base %.3g", mean, want)
	}
}

func TestNakagamiDeterministicAndSymmetric(t *testing.T) {
	nak := NewNakagami(NewTwoRay(914e6, 1.5, 1.5), 1, des.Millisecond, 42)
	a, b := geom.Point{X: 10, Y: 5}, geom.Point{X: 180, Y: 40}
	at := 123 * des.Millisecond
	p1 := RxPower(nak, 0.1, a, b, at)
	if p1 != RxPower(nak, 0.1, a, b, at) {
		t.Fatal("fading not deterministic")
	}
	if p1 != RxPower(nak, 0.1, b, a, at) {
		t.Fatal("fading not symmetric")
	}
	// Different coherence slots must (almost surely) differ.
	if p1 == RxPower(nak, 0.1, a, b, at+des.Second) {
		t.Fatal("fading constant across slots")
	}
	// Different seeds must differ.
	nak2 := NewNakagami(NewTwoRay(914e6, 1.5, 1.5), 1, des.Millisecond, 43)
	if p1 == RxPower(nak2, 0.1, a, b, at) {
		t.Fatal("fading identical across seeds")
	}
}

func TestNakagamiShapeControlsVariance(t *testing.T) {
	// Larger m → smaller fading variance (approaches the unfaded channel).
	variance := func(m int) float64 {
		nak := NewNakagami(NewTwoRay(914e6, 1.5, 1.5), m, des.Millisecond, 9)
		a, b := geom.Point{X: 0}, geom.Point{X: 150}
		base := RxPower(nak.Base, 1, a, b, 0)
		var sum, sumSq float64
		const slots = 5000
		for i := 0; i < slots; i++ {
			x := RxPower(nak, 1, a, b, des.Time(i)*des.Millisecond) / base
			sum += x
			sumSq += x * x
		}
		mean := sum / slots
		return sumSq/slots - mean*mean
	}
	v1, v4 := variance(1), variance(4)
	if v4 >= v1 {
		t.Fatalf("variance did not shrink with m: m=1 %.3f, m=4 %.3f", v1, v4)
	}
	// Rayleigh (m=1) has unit-mean exponential power: variance ≈ 1.
	if v1 < 0.8 || v1 > 1.2 {
		t.Fatalf("Rayleigh variance %.3f, want ≈1", v1)
	}
}

func TestNakagamiDefaults(t *testing.T) {
	nak := NewNakagami(NewFreeSpace(2.4e9), 0, 0, 1)
	if nak.M != 1 || nak.CoherenceTime <= 0 {
		t.Fatalf("defaults not applied: %+v", nak)
	}
}

// TestSetPosVisibleToLinkQueries moves the far-end radio of a 9.73 km line
// next to radio 0 and back: RxPowerBetween and InRange must answer from the
// positions of the moment, in both directions, whatever audible sets
// earlier transmissions memoised.
func TestSetPosVisibleToLinkQueries(t *testing.T) {
	sim, m, radios, _ := lineMedium(140, 70)
	prop, txW := m.prop, DefaultParams().TxPowerW
	check := func(when string, inRange bool) {
		t.Helper()
		a, b := m.pos[0], m.pos[139]
		if got, want := m.RxPowerBetween(0, 139), RxPower(prop, txW, a, b, 0); got != want {
			t.Fatalf("%s: power 0→139 is %g, the model says %g", when, got, want)
		}
		if got, want := m.RxPowerBetween(139, 0), RxPower(prop, txW, b, a, 0); got != want {
			t.Fatalf("%s: power 139→0 is %g, the model says %g", when, got, want)
		}
		if m.InRange(0, 139) != inRange || m.InRange(139, 0) != inRange {
			t.Fatalf("%s: InRange 0→139 %v, 139→0 %v, want both %v",
				when, m.InRange(0, 139), m.InRange(139, 0), inRange)
		}
	}
	home := m.pos[139]
	radios[0].Transmit("x", 100, des.Millisecond)
	radios[139].Transmit("y", 100, des.Millisecond)
	sim.Run()
	check("at the far end", false)
	radios[139].SetPos(geom.Point{X: 30, Y: 40})
	check("moved next to radio 0", true)
	radios[139].SetPos(home)
	check("moved back", false)
}
