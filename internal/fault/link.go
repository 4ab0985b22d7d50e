package fault

import (
	"math"

	"clnlr/internal/des"
)

// LinkModel evaluates the Gilbert–Elliott process for every directed link
// of an n-node network. The chain is driven by a counter-based generator:
// each state transition and loss decision is a pure hash of
// (seed, src, dst, slot), never a draw from a shared mutable stream. That
// makes the process independent of which frames happen to probe it — the
// indexed and the reference radio path, and a warm and a cold engine, see
// byte-for-byte the same channel.
//
// The hash absorbs its words in that order, one splitmix64 round each, so
// (seed, link) is a prefix: Reset absorbs the seed, Deliver the link once,
// and every slot the chain advances costs one round.
//
// Per-link state is only a memo (the last evaluated slot and the chain
// state there), advanced monotonically as simulation time does. The zero
// LinkModel is ready for Reset.
type LinkModel struct {
	p LinkParams
	// seeded is the hash accumulator after the run seed.
	seeded uint64
	n      int
	slot   des.Time
	// Per-slot transition probabilities good→bad and bad→good, chosen so
	// the mean sojourn times match MeanGood/MeanBad, the stationary
	// probability of the bad state and the two loss probabilities, each
	// as the threshold a draw's 53 bits are compared with (see below).
	tGB, tBG, tPiBad, tLossGood, tLossBad uint64
	// links[src*n+dst] memoises the chain for one directed link.
	links []linkMemo
}

type linkMemo struct {
	lastSlot int64 // -1 = chain not yet initialised
	bad      bool
}

// NewLinkModel builds the impairment process for n radios. p must satisfy
// p.Enabled(); seed is the run seed the per-link hashes mix in.
func NewLinkModel(p LinkParams, seed uint64, n int) *LinkModel {
	lm := &LinkModel{}
	lm.Reset(p, seed, n)
	return lm
}

// Reset re-parameterises the model in place for a fresh run (warm engine
// reuse), keeping the memo backing array when the network size allows.
func (lm *LinkModel) Reset(p LinkParams, seed uint64, n int) {
	lm.p = p
	lm.seeded, _ = absorb(golden, seed)
	lm.n = n
	lm.slot = p.Slot
	if lm.slot <= 0 {
		lm.slot = 10 * des.Millisecond
	}
	pGB := float64(lm.slot) / float64(p.MeanGood)
	if pGB > 1 {
		pGB = 1
	}
	pBG := 1.0
	if p.MeanBad > 0 {
		pBG = float64(lm.slot) / float64(p.MeanBad)
		if pBG > 1 {
			pBG = 1
		}
	}
	lm.tGB, lm.tBG = threshold(pGB), threshold(pBG)
	lm.tPiBad = threshold(pGB / (pGB + pBG))
	lm.tLossGood, lm.tLossBad = threshold(p.LossGood), threshold(p.LossBad)
	if cap(lm.links) < n*n {
		lm.links = make([]linkMemo, n*n)
	}
	lm.links = lm.links[:n*n]
	for i := range lm.links {
		lm.links[i] = linkMemo{lastSlot: -1}
	}
}

// golden is the splitmix64 increment and the hash's initial accumulator.
const golden = 0x9e3779b97f4a7c15

// absorb is one round of the tuple hash (splitmix64 over a running
// accumulator): it folds word w into accumulator x and returns the new
// accumulator and the 64 well-mixed bits of the tuple ending at w.
func absorb(x, w uint64) (next, h uint64) {
	x ^= w
	x += golden
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	h = z ^ (z >> 31)
	return x ^ h, h
}

// A draw is the top 53 bits of a hash, k = h>>11, read as the uniform
// variate k·2⁻⁵³ in [0, 1). Scaling by 2⁵³ is exact, so the draw is below
// p exactly when k is below p·2⁵³, which for an integer k is k < ⌈p·2⁵³⌉:
// each probability is compared as that integer threshold, and no draw is
// converted to a float.
const drawScale = 1 << 53

// threshold returns ⌈p·2⁵³⌉ clamped to [0, 2⁵³]: draw(h) < p exactly
// when h>>11 < threshold(p), for any p (NaN counts as 0).
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return drawScale
	}
	return uint64(math.Ceil(p * drawScale))
}

// Deliver reports whether a frame crossing the directed link src→dst at
// time now survives the impairment process. now must be non-decreasing
// per link (simulation time is), so the memoised chain only ever advances.
func (lm *LinkModel) Deliver(src, dst int, now des.Time) bool {
	cur := int64(now / lm.slot)
	link, _ := absorb(lm.seeded, uint64(src)<<32|uint64(uint32(dst)))
	memo := &lm.links[src*lm.n+dst]
	if memo.lastSlot < 0 {
		// Start the chain in its stationary distribution at slot 0.
		_, h := absorb(link, ^uint64(0))
		memo.bad = h>>11 < lm.tPiBad
		memo.lastSlot = 0
	}
	bad := memo.bad
	for s := memo.lastSlot + 1; s <= cur; s++ {
		_, h := absorb(link, uint64(s))
		if bad {
			bad = h>>11 >= lm.tBG
		} else {
			bad = h>>11 < lm.tGB
		}
	}
	memo.bad = bad
	if cur > memo.lastSlot {
		memo.lastSlot = cur
	}
	loss := lm.tLossGood
	if bad {
		loss = lm.tLossBad
	}
	if loss == 0 {
		return true
	}
	// Salt the loss draw so it is independent of the state draw for the
	// same slot. One draw per (link, slot, frame-ordinal) would need
	// mutable per-frame state; per (link, slot) is the standard slotted
	// approximation and keeps the draw a pure function.
	slotted, _ := absorb(link, uint64(cur))
	_, h := absorb(slotted, 0x10ad)
	return h>>11 >= loss
}
