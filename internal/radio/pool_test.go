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
		sim.At(at, func() { radios[0].Transmit("f", 100, des.Millisecond) })
		for j := 1; j < len(radios); j++ {
			j := j
			sim.At(at, func() { radios[j].Transmit("g", 100, des.Millisecond) })
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

// overCap is a medium with more radios than txPoolCap, each 10 km from the
// next (out of one another's hearing), that have all transmitted at once:
// more transmissions came back together than the pool keeps.
func overCap(t *testing.T) (*Medium, []geom.Point) {
	pos := make([]geom.Point, txPoolCap+10)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 10e3}
	}
	sim, m, radios, _ := testbed(DefaultParams(), pos...)
	stagger(sim, radios, 1)
	sim.Run()
	if hw := m.TxInFlightHW(); hw != len(pos) {
		t.Fatalf("tx in-flight high-water %d, want all %d radios at once", hw, len(pos))
	}
	return m, pos
}

func TestTxPoolCap(t *testing.T) {
	m, _ := overCap(t)
	if got := m.txPool.Len(); got != txPoolCap {
		t.Fatalf("pool length %d, want the bound %d", got, txPoolCap)
	}
	if got := m.TxPoolDrops(); got != 10 {
		t.Fatalf("%d pool drops, want the 10 transmissions beyond the bound", got)
	}
}

// TestResetClearsTxPoolDrops pins the warm==cold contract for the pool
// drop counter: a warm engine's second run must start from zero drops
// exactly like a freshly built medium (Reset used to zero every other
// counter but leak this one across runs).
func TestResetClearsTxPoolDrops(t *testing.T) {
	m, pos := overCap(t)
	if m.TxPoolDrops() == 0 {
		t.Fatal("no pool drops before Reset; test needs cap pressure")
	}
	m.Reset(NewTwoRay(914e6, 1.5, 1.5), pos)
	if got := m.TxPoolDrops(); got != 0 {
		t.Fatalf("txPoolDrops %d survived Reset, want 0", got)
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
