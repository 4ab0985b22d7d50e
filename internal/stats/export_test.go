package stats

// Accessors only the tests read.

// Sum returns the exact sum of all recorded samples.
func (h *LogHistogram) Sum() float64 { return h.sum }

// OutOfRange returns the underflow and overflow counts.
func (h *LogHistogram) OutOfRange() (under, over int64) { return h.under, h.over }

// NumBins returns the number of in-range buckets.
func (h *LogHistogram) NumBins() int { return len(h.bins) }

// Max returns the maximum value observed since the last Reset.
func (tw *TimeWeighted) Max() float64 { return tw.maxV }
