package radio

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

// stagger launches n back-to-back transmissions from radios[0] and one
// overlapping transmission per peer radio, so both the pool and the
// in-flight counter see pressure.
func stagger(sim *des.Sim, radios []*Radio, n int) {
	for i := 0; i < n; i++ {
		at := des.Time(i) * 2 * des.Millisecond
		sim.AtCall(at, des.Func(func() { radios[0].Transmit("f", 100, des.Millisecond) }), 0, 0)
		for j := 1; j < len(radios); j++ {
			j := j
			sim.AtCall(at, des.Func(func() { radios[j].Transmit("g", 100, des.Millisecond) }), 0, 0)
		}
	}
}

func TestTxInFlightHighWater(t *testing.T) {
	sim, m, radios, _ := testbed(DefaultParams(),
		geom.Point{X: 0}, geom.Point{X: 200})
	stagger(sim, radios, 3)
	sim.Run()
	// Both radios transmit concurrently in every round.
	if hw := m.TxInFlightHW(); hw != 2 {
		t.Fatalf("tx in-flight high-water %d, want 2", hw)
	}
	if m.txPool.Len() == 0 {
		t.Fatal("transmission pool empty after completed transmissions")
	}
	m.Reset(NewTwoRay(914e6, 1.5, 1.5), []geom.Point{{X: 0}, {X: 200}})
	if m.TxInFlightHW() != 0 {
		t.Fatalf("high-water %d survived Reset", m.TxInFlightHW())
	}
}

// TestTxPoolCap (a historical name: the pool has no cap) keeps every
// transmission: 1 034 radios, each 10 km from the next (out of one
// another's hearing), all transmit at once, every transmission comes
// back to the pool, and a warm run of the same allocates none.
func TestTxPoolCap(t *testing.T) {
	pos := make([]geom.Point, 1034)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 10e3}
	}
	sim, m, radios, _ := testbed(DefaultParams(), pos...)
	stagger(sim, radios, 1)
	sim.Run()
	if hw := m.TxInFlightHW(); hw != len(pos) {
		t.Fatalf("tx in-flight high-water %d, want all %d radios at once", hw, len(pos))
	}
	if got := m.txPool.Len(); got != len(pos) {
		t.Fatalf("pool length %d, want all %d transmissions", got, len(pos))
	}
	sim.Reset()
	m.Reset(NewTwoRay(914e6, 1.5, 1.5), pos)
	stagger(sim, radios, 1)
	sim.RunUntil(0)
	if got := m.txPool.Len(); got != 0 {
		t.Fatalf("pool length %d with every radio on the air, want every transmission reused", got)
	}
}

func TestUnknownMediumOpPanics(t *testing.T) {
	_, m, _, _ := testbed(DefaultParams(), geom.Point{X: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op did not panic")
		}
	}()
	m.HandleEvent(99, 0)
}
