package fault

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/rng"
)

// oracleLinkModel is the LinkModel as it was before the per-link hash
// prefix, verbatim apart from the type's name: every draw re-hashes the
// whole (seed, link, slot) tuple through the variadic mix, three splitmix
// rounds per slot. The differential test below holds LinkModel to it.
type oracleLinkModel struct {
	p    LinkParams
	seed uint64
	n    int
	slot des.Time
	// Per-slot transition probabilities good→bad and bad→good, chosen so
	// the mean sojourn times match MeanGood/MeanBad.
	pGB, pBG float64
	// links[src*n+dst] memoises the chain for one directed link.
	links []linkMemo
}

func (lm *oracleLinkModel) Reset(p LinkParams, seed uint64, n int) {
	lm.p = p
	lm.seed = seed
	lm.n = n
	lm.slot = p.Slot
	if lm.slot <= 0 {
		lm.slot = 10 * des.Millisecond
	}
	lm.pGB = float64(lm.slot) / float64(p.MeanGood)
	if lm.pGB > 1 {
		lm.pGB = 1
	}
	lm.pBG = 1.0
	if p.MeanBad > 0 {
		lm.pBG = float64(lm.slot) / float64(p.MeanBad)
		if lm.pBG > 1 {
			lm.pBG = 1
		}
	}
	if cap(lm.links) < n*n {
		lm.links = make([]linkMemo, n*n)
	}
	lm.links = lm.links[:n*n]
	for i := range lm.links {
		lm.links[i] = linkMemo{lastSlot: -1}
	}
}

// mix hashes the tuple into 64 well-mixed bits (splitmix64 over a running
// accumulator, one round per word).
func mix(words ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	var h uint64
	for _, w := range words {
		x ^= w
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
		x ^= h
	}
	return h
}

// hash01 maps the tuple to a float64 in [0, 1).
func hash01(words ...uint64) float64 {
	return float64(mix(words...)>>11) / (1 << 53)
}

func (lm *oracleLinkModel) Deliver(src, dst int, now des.Time) bool {
	cur := int64(now / lm.slot)
	key := uint64(src)<<32 | uint64(uint32(dst))
	memo := &lm.links[src*lm.n+dst]
	if memo.lastSlot < 0 {
		// Start the chain in its stationary distribution at slot 0.
		piBad := lm.pGB / (lm.pGB + lm.pBG)
		memo.bad = hash01(lm.seed, key, ^uint64(0)) < piBad
		memo.lastSlot = 0
	}
	for s := memo.lastSlot + 1; s <= cur; s++ {
		draw := hash01(lm.seed, key, uint64(s))
		if memo.bad {
			memo.bad = draw >= lm.pBG
		} else {
			memo.bad = draw < lm.pGB
		}
	}
	if cur > memo.lastSlot {
		memo.lastSlot = cur
	}
	loss := lm.p.LossGood
	if memo.bad {
		loss = lm.p.LossBad
	}
	if loss <= 0 {
		return true
	}
	return hash01(lm.seed, key, uint64(cur), 0x10ad) >= loss
}

// TestAbsorbIsMixPrefix: folding the words in one at a time reproduces the
// variadic hash at every length, which is what lets (seed, link) be
// absorbed once.
func TestAbsorbIsMixPrefix(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		var words []uint64
		x := uint64(golden)
		for k := 0; k < 5; k++ {
			w := src.Uint64()
			if k == trial%5 {
				w = [...]uint64{0, ^uint64(0), 0x10ad, 1, golden}[trial%5]
			}
			words = append(words, w)
			var h uint64
			x, h = absorb(x, w)
			if want := mix(words...); h != want {
				t.Fatalf("absorb over %x gives %x, mix gives %x", words, h, want)
			}
		}
	}
}

// TestDeliverMatchesOracle drives LinkModel and the pre-prefix model with
// the same random probe sequences — time non-decreasing as simulation time
// is, in steps from "same slot again" to hundreds of slots at once, the
// first probe of a link often late — under parameter sets that reach every
// branch, and again after a Reset over the used memo. Same bits, so the
// same decision at every probe and the same chain state behind it.
func TestDeliverMatchesOracle(t *testing.T) {
	const n = 6
	params := map[string]LinkParams{
		"mobile100":   {MeanGood: 2 * des.Second, MeanBad: 200 * des.Millisecond, LossBad: 0.8},
		"loss-good":   {MeanGood: 300 * des.Millisecond, MeanBad: 100 * des.Millisecond, LossBad: 0.9, LossGood: 0.2},
		"mean-bad-0":  {MeanGood: 50 * des.Millisecond, LossBad: 0.5}, // not Enabled(), but Reset defines it: a bad slot lasts one slot
		"always-bad":  {MeanGood: 5 * des.Millisecond, MeanBad: 10 * des.Second, LossBad: 1},
		"coarse-slot": {MeanGood: des.Second, MeanBad: des.Second, LossBad: 0.7, LossGood: 0.01, Slot: 250 * des.Millisecond},
		"fine-slot":   {MeanGood: 20 * des.Millisecond, MeanBad: 5 * des.Millisecond, LossBad: 0.6, Slot: des.Millisecond},
	}
	for name, p := range params {
		src := rng.New(uint64(len(name)))
		lm := NewLinkModel(p, 0, n)
		var oracle oracleLinkModel
		for round, seed := range []uint64{0, 1, ^uint64(0), src.Uint64(), src.Uint64()} {
			// Rounds after the first reuse the memo the last one dirtied.
			lm.Reset(p, seed, n)
			oracle.Reset(p, seed, n)
			now := des.Time(0)
			if round%2 == 1 {
				now = des.Time(src.Intn(5000)) * des.Millisecond // every link's first probe is late
			}
			drops := 0
			for k := 0; k < 3000; k++ {
				switch src.Intn(8) {
				case 0: // same instant
				case 1:
					now += des.Time(src.Intn(3000)) * des.Millisecond // up to hundreds of slots at once
				default:
					now += des.Time(src.Intn(int(25 * des.Millisecond)))
				}
				s, d := src.Intn(n), src.Intn(n)
				got, want := lm.Deliver(s, d, now), oracle.Deliver(s, d, now)
				if got != want {
					t.Fatalf("%s seed %#x probe %d (%d->%d at %v): delivers %v, oracle %v", name, seed, k, s, d, now, got, want)
				}
				if !got {
					drops++
				}
			}
			for i := range lm.links {
				if lm.links[i] != oracle.links[i] {
					t.Fatalf("%s seed %#x: link %d memo %+v, oracle %+v", name, seed, i, lm.links[i], oracle.links[i])
				}
			}
			if drops == 0 || drops == 3000 {
				t.Fatalf("%s seed %#x: %d of 3000 probes dropped: the sequence tests nothing", name, seed, drops)
			}
		}
	}
}

// unit is the float draw the thresholds replace: 64 hash bits as a
// float64 in [0, 1), what LinkModel compared with each probability.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// TestThresholdMatchesFloatDraw: for probabilities from 0 through the
// smallest draw step, a default link's transition probabilities, one
// half, one and beyond, comparing a draw's 53 bits with threshold(p)
// decides exactly as unit(h) < p does — on random hashes and on the
// hashes whose draws sit just below, at and just above each threshold.
func TestThresholdMatchesFloatDraw(t *testing.T) {
	lm := NewLinkModel(LinkParams{MeanGood: 2 * des.Second, MeanBad: 200 * des.Millisecond, LossBad: 0.8}, 1, 2)
	pGB := float64(lm.slot) / float64(lm.p.MeanGood)
	pBG := float64(lm.slot) / float64(lm.p.MeanBad)
	ps := []float64{0, 1.0 / (1 << 53), 1.5 / (1 << 53), pGB, pBG, pGB / (pGB + pBG), 0.8, 0.5, 1 - 1.0/(1<<53), 1, 1.5, -0.25}
	src := rng.New(5)
	for _, p := range ps {
		th := threshold(p)
		check := func(h uint64) {
			if got, want := h>>11 < th, unit(h) < p; got != want {
				t.Fatalf("p=%v h=%#x: threshold %d says %v, unit(h) < p says %v", p, h, th, got, want)
			}
		}
		for i := 0; i < 20000; i++ {
			check(src.Uint64())
		}
		for _, k := range []uint64{th - 2, th - 1, th, th + 1, 0, drawScale - 1} {
			if k >= drawScale {
				continue
			}
			check(k<<11 | src.Uint64()>>53)
		}
	}
}
