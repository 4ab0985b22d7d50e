// Package rng provides the deterministic pseudo-random number generation
// used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a
// scenario run with the same seed must produce bit-identical results on
// every platform, independent of Go map iteration order or scheduling.
// The package therefore implements its own generator (xoshiro256**,
// seeded via splitmix64) instead of relying on math/rand's global state,
// and exposes explicit stream derivation so that each node, flow and
// protocol instance draws from an independent, reproducible stream.
package rng

import "math"

// Source is a xoshiro256** pseudo-random generator. It is deliberately a
// small value type: every simulated entity that needs randomness owns its
// own Source, derived from the run master seed, so no locking is needed
// and event order cannot perturb the streams of unrelated entities.
type Source struct {
	s    [4]uint64
	seed uint64 // the seed this Source was created from; basis for Derive
}

// splitmix64 advances x by the splitmix64 sequence and returns the next
// output. It is the recommended seeder for xoshiro generators because it
// decorrelates arbitrary (even zero or sequential) user seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Any seed value, including zero,
// yields a well-mixed internal state.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed reinitialises the generator state from seed.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	x := seed
	s.s[0] = splitmix64(&x)
	s.s[1] = splitmix64(&x)
	s.s[2] = splitmix64(&x)
	s.s[3] = splitmix64(&x)
}

// Derive returns a new Source whose stream is a deterministic function of
// the receiver's seed lineage and the supplied labels, without consuming
// any numbers from the receiver. It is used to hand out per-node and
// per-flow streams: Derive(nodeID, purpose) is stable no matter how many
// values the parent has produced.
func (s *Source) Derive(labels ...uint64) *Source {
	d := new(Source)
	s.DeriveInto(d, labels...)
	return d
}

// DeriveInto reseeds dst to the stream Derive(labels...) returns, in
// dst's own storage: a warm engine re-derives the per-node streams its
// nodes already hold instead of allocating new ones. dst may be s.
func (s *Source) DeriveInto(dst *Source, labels ...uint64) {
	// Mix the creation seed (not the mutable state) with the labels
	// through splitmix64 so sibling derivations are decorrelated and the
	// result does not depend on how much the parent has been consumed.
	x := s.seed ^ 0xd2b74407b1ce6e93
	_ = splitmix64(&x)
	for _, l := range labels {
		x ^= l + 0x9e3779b97f4a7c15
		_ = splitmix64(&x)
	}
	dst.Reseed(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256** step).
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0,1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	m := t & mask
	c = t >> 32
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// BoolDraw is Bool, additionally exposing the uniform draw that decided
// the outcome (for decision-provenance recording). It consumes exactly as
// much of the stream as Bool: nothing for degenerate probabilities —
// draw is then -1 — and one Float64 otherwise, so swapping Bool for
// BoolDraw never perturbs the stream.
func (s *Source) BoolDraw(p float64) (ok bool, draw float64) {
	if p <= 0 {
		return false, -1
	}
	if p >= 1 {
		return true, -1
	}
	d := s.Float64()
	return d < p, d
}

// Exp returns an exponentially distributed float64 with the given mean.
// It panics if mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// Draw u in (0,1] so Log never sees zero.
	u := 1 - s.Float64()
	return -mean * math.Log(u)
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}
