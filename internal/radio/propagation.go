// Package radio models the shared wireless channel: signal propagation,
// cumulative interference, capture (SINR) reception and carrier sensing.
//
// The modelling level matches classic packet simulators (ns-2's wireless
// stack): transmissions are opaque frames with a duration; a frame is
// received if its power clears the receive threshold and its SINR stays
// above the capture threshold for the whole airtime; any node sensing
// aggregate energy above the carrier-sense threshold sees a busy channel.
package radio

import (
	"math"

	"clnlr/internal/des"
	"clnlr/internal/geom"
)

// SpeedOfLight in metres per second.
const SpeedOfLight = 299_792_458.0

// Propagation computes received signal power from one transmitter to a row
// of receivers. Implementations must be deterministic functions of their
// inputs (shadowing variants derive their randomness from the endpoint
// coordinates) so that runs are reproducible.
//
// The method works on a row because the Medium asks for a transmitter's
// powers at every radio at once (buildAudible): one interface call, and
// whatever does not depend on the receiver — the transmit-side product, the
// two-ray crossover, the log-distance reference power — is computed once
// per row. Each model hoists such a term as the same left-to-right
// sub-expression the per-pair formula starts with, never a regrouped one:
// float64 multiplication is not associative, and every power must stay
// bit-equal to the per-pair formulas oracle_test.go keeps.
type Propagation interface {
	// RxPowers sets out[i] to the received power in watts at to[i] for a
	// transmission of txPowerW watts from `from` starting at time `at`
	// (static models ignore `at`; fading models hash it into their
	// deterministic channel draw). len(out) must be at least len(to).
	RxPowers(txPowerW float64, from geom.Point, to []geom.Point, at des.Time, out []float64)
	// TimeInvariant reports whether RxPowers ignores the time argument,
	// which lets the Medium memoise each transmitter's audible set
	// between transmissions.
	TimeInvariant() bool
}

// RxPower is the one-element row: the power p delivers at `to`.
func RxPower(p Propagation, txPowerW float64, from, to geom.Point, at des.Time) float64 {
	pts, out := [1]geom.Point{to}, [1]float64{}
	p.RxPowers(txPowerW, from, pts[:], at, out[:])
	return out[0]
}

// FreeSpace is the Friis free-space model:
//
//	Pr = Pt·Gt·Gr·λ² / ((4π·d)²·L)
type FreeSpace struct {
	// WavelengthM is the carrier wavelength λ in metres.
	WavelengthM float64
	// Gt, Gr are antenna gains (dimensionless, typically 1).
	Gt, Gr float64
	// L is the system loss factor (≥1, typically 1).
	L float64
}

// NewFreeSpace returns a free-space model for the given carrier frequency
// in Hz with unity gains and loss.
func NewFreeSpace(freqHz float64) FreeSpace {
	return FreeSpace{WavelengthM: SpeedOfLight / freqHz, Gt: 1, Gr: 1, L: 1}
}

// RxPowers implements Propagation.
func (f FreeSpace) RxPowers(txPowerW float64, from geom.Point, to []geom.Point, _ des.Time, out []float64) {
	num := f.friisNumerator(txPowerW)
	for i, p := range to {
		out[i] = f.friis(txPowerW, num, from.Dist(p))
	}
}

// friisNumerator is the receiver-independent Pt·Gt·Gr·λ² of a row.
func (f FreeSpace) friisNumerator(txPowerW float64) float64 {
	return txPowerW * f.Gt * f.Gr * f.WavelengthM * f.WavelengthM
}

// friis is the free-space power at distance d, num being
// friisNumerator(txPowerW).
func (f FreeSpace) friis(txPowerW, num, d float64) float64 {
	if d < 1e-9 {
		return txPowerW // co-located: no path loss
	}
	den := 4 * math.Pi * d
	return num / (den * den * f.L)
}

// TimeInvariant implements Propagation: the free-space model and those
// that embed it (two-ray, log-distance with its per-link shadowing)
// are static.
func (FreeSpace) TimeInvariant() bool { return true }

// TwoRay is the two-ray ground-reflection model used by the classic ns-2
// 802.11 stack: Friis below the crossover distance, Pt·Gt·Gr·ht²·hr²/d⁴
// beyond it. With the default WaveLAN parameters it yields the canonical
// 250 m receive / 550 m carrier-sense ranges.
type TwoRay struct {
	FreeSpace
	// Ht, Hr are antenna heights above ground in metres.
	Ht, Hr float64
}

// NewTwoRay returns a two-ray model at freqHz with the given antenna
// heights and unity gains/loss.
func NewTwoRay(freqHz, ht, hr float64) TwoRay {
	return TwoRay{FreeSpace: NewFreeSpace(freqHz), Ht: ht, Hr: hr}
}

// Crossover returns the distance where the two-ray branch takes over.
func (t TwoRay) Crossover() float64 {
	return 4 * math.Pi * t.Ht * t.Hr / t.WavelengthM
}

// RxPowers implements Propagation.
func (t TwoRay) RxPowers(txPowerW float64, from geom.Point, to []geom.Point, _ des.Time, out []float64) {
	cross := t.Crossover()
	near := t.friisNumerator(txPowerW)
	far := txPowerW * t.Gt * t.Gr * t.Ht * t.Ht * t.Hr * t.Hr
	for i, p := range to {
		d := from.Dist(p)
		if d < cross {
			out[i] = t.friis(txPowerW, near, d)
		} else {
			out[i] = far / (d * d * d * d * t.L)
		}
	}
}

// LogDistance is the log-distance path-loss model with optional log-normal
// shadowing: the path loss at distance d is the reference free-space loss
// at RefDistM increased by 10·Exp·log10(d/RefDistM) dB plus a zero-mean
// Gaussian shadowing term of SigmaDB.
//
// The shadowing draw is a deterministic hash of the *unordered* endpoint
// pair, so (a) a given link always sees the same shadowing, (b) the link
// is symmetric, and (c) runs are reproducible without threading an RNG
// through the propagation interface.
type LogDistance struct {
	FreeSpace
	// Exp is the path-loss exponent (2 = free space, 2.7–4 urban).
	Exp float64
	// RefDistM is the reference distance d0 in metres.
	RefDistM float64
	// SigmaDB is the shadowing standard deviation in dB (0 disables it).
	SigmaDB float64
	// Seed perturbs the per-link shadowing hash so replications see
	// different shadowing fields.
	Seed uint64
}

// NewLogDistance builds a log-distance model at freqHz.
func NewLogDistance(freqHz, exp, refDist, sigmaDB float64, seed uint64) LogDistance {
	return LogDistance{
		FreeSpace: NewFreeSpace(freqHz),
		Exp:       exp,
		RefDistM:  refDist,
		SigmaDB:   sigmaDB,
		Seed:      seed,
	}
}

// RxPowers implements Propagation.
func (l LogDistance) RxPowers(txPowerW float64, from geom.Point, to []geom.Point, _ des.Time, out []float64) {
	// The reference power is Friis between two points RefDistM apart, the
	// distance measured as the per-pair formula measured it.
	ref := geom.Point{}.Dist(geom.Point{X: l.RefDistM})
	pr0 := l.friis(txPowerW, l.friisNumerator(txPowerW), ref)
	for i, p := range to {
		d := from.Dist(p)
		if d < l.RefDistM {
			d = l.RefDistM
		}
		lossDB := 10 * l.Exp * math.Log10(d/l.RefDistM)
		if l.SigmaDB > 0 {
			lossDB -= l.SigmaDB * l.pairGaussian(from, p)
		}
		out[i] = pr0 * math.Pow(10, -lossDB/10)
	}
}

// pairGaussian returns a deterministic standard-normal draw for the
// unordered endpoint pair.
func (l LogDistance) pairGaussian(a, b geom.Point) float64 {
	// Order the endpoints so the link is symmetric.
	if a.X > b.X || (a.X == b.X && a.Y > b.Y) {
		a, b = b, a
	}
	h := l.Seed ^ 0x9e3779b97f4a7c15
	for _, v := range [4]float64{a.X, a.Y, b.X, b.Y} {
		h ^= math.Float64bits(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	// Two uniforms from the 64-bit hash → Box–Muller.
	u1 := float64(h>>11)/(1<<53)*(1-2e-16) + 1e-16 // (0,1)
	h2 := h*0x94d049bb133111eb ^ (h >> 31)
	u2 := float64(h2>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Nakagami overlays deterministic Nakagami-m fast fading on a base model:
// the received power is multiplied by a unit-mean Gamma(m, 1/m) draw that
// is a pure hash of (unordered link, time slot), so runs stay reproducible
// while link quality fluctuates over time. m=1 is Rayleigh fading; larger
// m approaches the unfaded channel.
type Nakagami struct {
	Base Propagation
	// M is the shape parameter (integer ≥ 1 in this implementation).
	M int
	// CoherenceTime is how long one fading draw persists on a link.
	CoherenceTime des.Time
	// Seed decorrelates replications.
	Seed uint64
}

// NewNakagami wraps base with Nakagami-m fading.
func NewNakagami(base Propagation, m int, coherence des.Time, seed uint64) Nakagami {
	if m < 1 {
		m = 1
	}
	if coherence <= 0 {
		coherence = 10 * des.Millisecond
	}
	return Nakagami{Base: base, M: m, CoherenceTime: coherence, Seed: seed}
}

// TimeInvariant implements Propagation: fades change every coherence
// slot.
func (Nakagami) TimeInvariant() bool { return false }

// RxPowers implements Propagation: the base model's row, then each
// link's fade.
func (n Nakagami) RxPowers(txPowerW float64, from geom.Point, to []geom.Point, at des.Time, out []float64) {
	n.Base.RxPowers(txPowerW, from, to, at, out)
	for i, p := range to {
		out[i] *= n.fade(from, p, at)
	}
}

// fade returns the unit-mean Gamma(m,1/m) multiplier for the link's
// current coherence slot.
func (n Nakagami) fade(a, b geom.Point, at des.Time) float64 {
	if a.X > b.X || (a.X == b.X && a.Y > b.Y) {
		a, b = b, a
	}
	slot := uint64(at / n.CoherenceTime)
	h := n.Seed ^ 0xa0761d6478bd642f
	for _, v := range [5]uint64{
		math.Float64bits(a.X), math.Float64bits(a.Y),
		math.Float64bits(b.X), math.Float64bits(b.Y), slot,
	} {
		h ^= v
		h *= 0xe7037ed1a0b428db
		h ^= h >> 32
	}
	// Gamma(m, 1/m) as the mean of m unit exponentials, each from one
	// uniform derived by advancing the hash.
	sum := 0.0
	for i := 0; i < n.M; i++ {
		h = h*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		x := h ^ (h >> 31)
		u := (float64(x>>11) + 0.5) / (1 << 53) // (0,1)
		sum += -math.Log(u)
	}
	return sum / float64(n.M)
}
