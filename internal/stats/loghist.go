package stats

import "math"

// LogHistogram counts samples into geometrically spaced (HDR-style)
// buckets over [lo, hi): each decade is split into perDecade buckets whose
// boundaries grow by a constant factor, so relative resolution is uniform
// across orders of magnitude — the right shape for latency distributions,
// where 1 ms and 1 s must both resolve to a few percent. Samples below lo
// (including zero and negatives) land in the underflow counter, samples at
// or above hi in the overflow counter.
//
// It also tracks the exact sum of in-range samples, so Mean is available
// without a second accumulator, and it
// supports Merge (for folding per-replication histograms into a sweep
// cell) and Reset (for warm reuse across runs).
type LogHistogram struct {
	lo, hi    float64
	logLo     float64
	perDecade int
	bins      []int64
	under     int64
	over      int64
	total     int64
	sum       float64
}

// NewLogHistogram creates a log-bucketed histogram over [lo, hi) with
// perDecade buckets per factor of ten. lo must be positive and hi > lo.
func NewLogHistogram(lo, hi float64, perDecade int) *LogHistogram {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic("stats: invalid log-histogram parameters")
	}
	decades := math.Log10(hi / lo)
	n := int(math.Ceil(decades*float64(perDecade) - 1e-9))
	if n <= 0 {
		n = 1
	}
	return &LogHistogram{
		lo: lo, hi: hi, logLo: math.Log10(lo), perDecade: perDecade,
		bins: make([]int64, n),
	}
}

// bucketOf returns the bucket index for x, or -1 (under) / len(bins)
// (over).
func (h *LogHistogram) bucketOf(x float64) int {
	if x < h.lo {
		return -1
	}
	i := int(math.Floor((math.Log10(x) - h.logLo) * float64(h.perDecade)))
	if i < 0 {
		i = 0 // FP edge just below lo's boundary after the range check
	}
	if i >= len(h.bins) {
		return len(h.bins)
	}
	return i
}

// Add records one sample. All samples (including out-of-range) count
// toward Count and Sum.
func (h *LogHistogram) Add(x float64) {
	h.total++
	h.sum += x
	switch i := h.bucketOf(x); {
	case i < 0:
		h.under++
	case i >= len(h.bins):
		h.over++
	default:
		h.bins[i]++
	}
}

// Count returns the number of samples recorded (including out-of-range).
func (h *LogHistogram) Count() int64 { return h.total }

// Mean returns the sample mean, or 0 with no samples.
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// boundary returns the lower edge of bucket i.
func (h *LogHistogram) boundary(i float64) float64 {
	return h.lo * math.Pow(10, i/float64(h.perDecade))
}

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1) using
// geometric interpolation within the containing bucket (samples are
// assumed log-uniform inside a bucket, matching the bucket geometry).
// Underflow mass is attributed to lo, overflow mass to hi.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.bins {
		if c > 0 && cum+float64(c) >= target {
			frac := (target - cum) / float64(c)
			v := h.boundary(float64(i) + frac)
			if v > h.hi {
				v = h.hi
			}
			return v
		}
		cum += float64(c)
	}
	return h.hi
}

// Merge adds another histogram's counts into h. Both must share the exact
// same geometry (lo, hi, perDecade); anything else is a programming error.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil {
		return
	}
	if o.lo != h.lo || o.hi != h.hi || o.perDecade != h.perDecade {
		panic("stats: merging log-histograms with different geometry")
	}
	if o.total == 0 {
		return
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.total += o.total
	h.sum += o.sum
}

// Reset zeroes every counter, keeping the geometry and bucket storage —
// the warm-reuse path between replications.
func (h *LogHistogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.under, h.over, h.total, h.sum = 0, 0, 0, 0
}
