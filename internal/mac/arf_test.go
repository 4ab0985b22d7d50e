package mac

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/radio"
)

func arfConfig() Config {
	cfg := DefaultConfig()
	cfg.AutoRate = true
	return cfg
}

// saturate keeps a sender's queue fed for the whole run: one tick a
// millisecond, more ticks than any test runs.
func saturate(sim *des.Sim, m *Mac) {
	sim.AtTrain(0, des.Millisecond, 1<<30, des.Func(func() {
		if m.QueueLen() < 5 {
			m.Send(dataPkt(m.id, 1, 512), 1)
		}
	}), 0, 0)
}

func TestARFClimbsOnShortCleanLink(t *testing.T) {
	// 50 m link: even 11 Mb/s (5.5× SINR requirement) decodes easily, so
	// ARF must climb to the top of the ladder and stay there.
	sim, macs, uppers := macTestbed(t, arfConfig(), geom.Point{X: 0}, geom.Point{X: 50})
	saturate(sim, macs[0])
	sim.RunUntil(5 * des.Second)
	if got := macs[0].unicastRate(1); got != 11_000_000 {
		t.Fatalf("short link settled at %d bps, want 11 Mb/s", got)
	}
	if len(uppers[1].received) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestARFHoldsBaseRateOnLongLink(t *testing.T) {
	// 240 m link: 5.5 Mb/s needs 2.75× the reference SINR → decode range
	// ≈ 194 m under two-ray, so every upward probe fails and ARF must
	// keep returning to 2 Mb/s.
	sim, macs, uppers := macTestbed(t, arfConfig(), geom.Point{X: 0}, geom.Point{X: 240})
	saturate(sim, macs[0])
	sim.RunUntil(10 * des.Second)
	if got := macs[0].unicastRate(1); got > 2_000_000 {
		t.Fatalf("long link settled at %d bps; higher rates cannot decode at 240 m", got)
	}
	// Probes fail but traffic keeps flowing at the sustainable rate.
	if len(uppers[1].received) < 100 {
		t.Fatalf("only %d deliveries; ARF probing broke the link", len(uppers[1].received))
	}
	if macs[0].Ctr.Retries == 0 {
		t.Fatal("no retries recorded: upward probes never happened")
	}
}

func TestARFImprovesShortLinkThroughput(t *testing.T) {
	run := func(auto bool) int {
		cfg := DefaultConfig()
		cfg.AutoRate = auto
		sim, macs, uppers := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 50})
		saturate(sim, macs[0])
		sim.RunUntil(10 * des.Second)
		return len(uppers[1].received)
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive <= fixed {
		t.Fatalf("ARF delivered %d ≤ fixed-rate %d on a short link", adaptive, fixed)
	}
	// 11 Mb/s payload airtime is 5.5× shorter; with preamble+overhead the
	// packet rate should still rise substantially.
	if float64(adaptive) < 1.5*float64(fixed) {
		t.Fatalf("ARF gain too small: %d vs %d", adaptive, fixed)
	}
}

func TestARFDisabledKeepsConfiguredRate(t *testing.T) {
	sim, macs, _ := macTestbed(t, DefaultConfig(), geom.Point{X: 0}, geom.Point{X: 50})
	saturate(sim, macs[0])
	sim.RunUntil(3 * des.Second)
	if got := macs[0].unicastRate(1); got != 2_000_000 {
		t.Fatalf("AutoRate off but rate %d", got)
	}
}

func TestARFStateMachineUnits(t *testing.T) {
	sim, macs, _ := macTestbed(t, arfConfig(), geom.Point{X: 0}, geom.Point{X: 50})
	_ = sim
	m := macs[0]
	// Reference rate 2 Mb/s is ladder index 1.
	if m.referenceRateIdx() != 1 {
		t.Fatalf("reference index %d", m.referenceRateIdx())
	}
	st := m.arfFor(1)
	for i := 0; i < m.cfg.ArfSuccessUp; i++ {
		m.arfSuccess(1)
	}
	if st.idx != 2 {
		t.Fatalf("after %d successes idx %d, want 2", m.cfg.ArfSuccessUp, st.idx)
	}
	for i := 0; i < m.cfg.ArfFailDown; i++ {
		m.arfFailure(1)
	}
	if st.idx != 1 {
		t.Fatalf("after failures idx %d, want 1", st.idx)
	}
	// A success resets the failure streak.
	m.arfFailure(1)
	m.arfSuccess(1)
	m.arfFailure(1)
	if st.idx != 1 {
		t.Fatalf("interleaved success did not reset failure streak (idx %d)", st.idx)
	}
	// Floor: failures at the bottom stay at index 0.
	for i := 0; i < 10; i++ {
		m.arfFailure(1)
	}
	if st.idx != 0 {
		t.Fatalf("floor violated: idx %d", st.idx)
	}
	for i := 0; i < 100; i++ {
		m.arfSuccess(1)
	}
	if st.idx != len(m.cfg.RateLadder)-1 {
		t.Fatalf("ceiling violated: idx %d", st.idx)
	}
}

// bareListener records raw radio deliveries without any MAC logic.
type bareListener struct{ delivered int }

func (b *bareListener) RadioReceive(payload any, bytes int, ok bool) {
	if ok {
		b.delivered++
	}
}
func (b *bareListener) RadioCarrier(bool) {}
func (b *bareListener) RadioTxDone(any)   {}

func TestRatedFrameShorterRange(t *testing.T) {
	// Direct radio check: a frame needing 5.5× SINR does not decode at
	// 240 m although a reference-rate frame does.
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	tx := medium.Attach(geom.Point{X: 0}, radio.DefaultParams())
	tx.SetListener(&bareListener{})
	rxl := &bareListener{}
	rx := medium.Attach(geom.Point{X: 240}, radio.DefaultParams())
	rx.SetListener(rxl)

	sim.ScheduleCall(0, des.Func(func() { tx.TransmitRated("fast", 100, des.Millisecond, 5.5) }), 0, 0)
	sim.ScheduleCall(10*des.Millisecond, des.Func(func() { tx.Transmit("base", 100, des.Millisecond) }), 0, 0)
	sim.RunUntil(des.Second)
	if rxl.delivered != 1 {
		t.Fatalf("delivered %d frames, want only the reference-rate one", rxl.delivered)
	}
}
