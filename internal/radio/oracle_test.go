package radio

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

// pairOracle is the per-pair Propagation the row kernels replaced. The four
// oracleRxPower methods below are those formulas verbatim (only the method
// name and the Nakagami base's type assertion are new): each computes every
// sub-expression per pair, nothing hoisted. pairGaussian and fade are
// shared with the row kernels, which did not touch them.
type pairOracle interface {
	oracleRxPower(txPowerW float64, from, to geom.Point, at des.Time) float64
}

func (f FreeSpace) oracleRxPower(txPowerW float64, from, to geom.Point, _ des.Time) float64 {
	d := from.Dist(to)
	if d < 1e-9 {
		return txPowerW // co-located: no path loss
	}
	den := 4 * math.Pi * d
	return txPowerW * f.Gt * f.Gr * f.WavelengthM * f.WavelengthM / (den * den * f.L)
}

func (t TwoRay) oracleRxPower(txPowerW float64, from, to geom.Point, at des.Time) float64 {
	d := from.Dist(to)
	if d < t.Crossover() {
		return t.FreeSpace.oracleRxPower(txPowerW, from, to, at)
	}
	return txPowerW * t.Gt * t.Gr * t.Ht * t.Ht * t.Hr * t.Hr / (d * d * d * d * t.L)
}

func (l LogDistance) oracleRxPower(txPowerW float64, from, to geom.Point, at des.Time) float64 {
	d := from.Dist(to)
	if d < l.RefDistM {
		d = l.RefDistM
	}
	pr0 := l.FreeSpace.oracleRxPower(txPowerW, geom.Point{}, geom.Point{X: l.RefDistM}, at)
	lossDB := 10 * l.Exp * math.Log10(d/l.RefDistM)
	if l.SigmaDB > 0 {
		lossDB -= l.SigmaDB * l.pairGaussian(from, to)
	}
	return pr0 * math.Pow(10, -lossDB/10)
}

func (n Nakagami) oracleRxPower(txPowerW float64, from, to geom.Point, at des.Time) float64 {
	base := n.Base.(pairOracle).oracleRxPower(txPowerW, from, to, at)
	return base * n.fade(from, to, at)
}

// TestRowKernelsBitEqualPairOracle pins every float64 the row kernels
// produce to the per-pair formulas: hoisting a row's invariants must not
// regroup a product. On amd64 the Go compiler never fuses a multiply-add,
// so there the equality holds by construction; on an architecture where it
// may fuse (arm64, ppc64le, s390x) this test is what says whether kernel
// and oracle still round alike.
func TestRowKernelsBitEqualPairOracle(t *testing.T) {
	tworay := NewTwoRay(914e6, 1.5, 1.5)
	lossy := NewTwoRay(2.4e9, 2, 1.2)
	lossy.Gt, lossy.Gr, lossy.L = 1.7, 0.9, 1.3
	shadowed := NewLogDistance(914e6, 3.3, 1, 4, 42)
	models := []struct {
		name string
		prop Propagation
	}{
		{"freespace", NewFreeSpace(914e6)},
		{"tworay", tworay},
		{"tworay-gains-loss", lossy},
		{"logdistance", NewLogDistance(914e6, 2.7, 1, 0, 0)},
		{"logdistance-shadowed", shadowed},
		{"nakagami-tworay-m1", NewNakagami(tworay, 1, 10*des.Millisecond, 7)},
		{"nakagami-tworay-m3", NewNakagami(tworay, 3, 10*des.Millisecond, 7)},
		{"nakagami-logdistance", NewNakagami(shadowed, 2, 5*des.Millisecond, 9)},
	}
	cross := tworay.Crossover()
	if cross < 86 || cross > 87 {
		t.Fatalf("default two-ray crossover at %v m, want ~86 m", cross)
	}
	dists := []float64{
		0, 5e-10, 1e-9, 0.5, 1, // co-located, below the 1e-9 cut, at it, inside and at the log-distance reference
		math.Nextafter(cross, 0), cross, math.Nextafter(cross, math.Inf(1)), lossy.Crossover(),
		250, 550, 3500, 10000,
	}
	// Receivers along the x axis from the origin give the distances exactly;
	// the same row seen from an off-axis transmitter, and each receiver
	// transmitting back, give asymmetric endpoints.
	var row []geom.Point
	for _, d := range dists {
		row = append(row, geom.Point{X: d}, geom.Point{X: 123.456 + d*0.6, Y: -78.9 + d*0.8})
	}
	froms := append([]geom.Point{{}, {X: 123.456, Y: -78.9}, {X: -2000.25, Y: 1999.75}}, row...)
	out := make([]float64, len(row))
	for _, m := range models {
		oracle := m.prop.(pairOracle)
		for _, txW := range []float64{0.2818, 1, 3e-3} {
			for _, at := range []des.Time{0, 9999999, 10 * des.Millisecond, 12345 * des.Millisecond, 3600 * des.Second} {
				for _, from := range froms {
					m.prop.RxPowers(txW, from, row, at, out)
					for i, to := range row {
						want := oracle.oracleRxPower(txW, from, to, at)
						if math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Fatalf("%s: tx %g W %v -> %v at %v: row kernel %x (%g), per-pair oracle %x (%g)",
								m.name, txW, from, to, at, math.Float64bits(out[i]), out[i], math.Float64bits(want), want)
						}
						if one := RxPower(m.prop, txW, from, to, at); math.Float64bits(one) != math.Float64bits(want) {
							t.Fatalf("%s: tx %g W %v -> %v at %v: one-element row %g, per-pair oracle %g",
								m.name, txW, from, to, at, one, want)
						}
					}
				}
			}
		}
	}
}
