// Package stats provides the statistical accumulators used by the
// simulator's measurement layer and by the replication harness.
//
// Everything here is deliberately dependency-free and allocation-light:
// accumulators are updated on the simulator's hot path (per packet, per
// queue transition), so they use streaming algorithms (Welford for
// moments, piecewise integration for time-weighted gauges) rather than
// retaining samples.
package stats

import "math"

// Welford is a streaming mean/variance accumulator (Welford's algorithm),
// numerically stable for long runs. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the sample mean, or 0 if no samples were added.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (n-1 denominator), or 0 for
// fewer than two samples.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge combines another accumulator into w (Chan et al. parallel
// variant), used when aggregating per-node accumulators into a run total.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// TimeWeighted integrates a piecewise-constant signal over time, yielding
// its time average — the correct way to average queue length or channel
// occupancy. Times are int64 nanoseconds (the des.Time representation).
// The zero value starts integrating from t=0 at value 0; use Reset to
// start from a different origin (e.g. after warm-up).
type TimeWeighted struct {
	lastT    int64
	lastV    float64
	integral float64
	startT   int64
	maxV     float64
	started  bool
}

// Reset restarts integration at time t with the current value v.
func (tw *TimeWeighted) Reset(t int64, v float64) {
	tw.lastT, tw.lastV = t, v
	tw.integral = 0
	tw.startT = t
	tw.maxV = v
	tw.started = true
}

// Set records that the signal changed to v at time t. Calls must have
// non-decreasing t.
func (tw *TimeWeighted) Set(t int64, v float64) {
	if !tw.started {
		tw.Reset(t, v)
		return
	}
	if t > tw.lastT {
		tw.integral += tw.lastV * float64(t-tw.lastT)
		tw.lastT = t
	}
	tw.lastV = v
	if v > tw.maxV {
		tw.maxV = v
	}
}

// Value returns the current value of the signal.
func (tw *TimeWeighted) Value() float64 { return tw.lastV }

// Avg returns the time average over [start, t]. If no time has elapsed it
// returns the current value.
func (tw *TimeWeighted) Avg(t int64) float64 {
	if !tw.started || t <= tw.startT {
		return tw.lastV
	}
	integral := tw.integral
	if t > tw.lastT {
		integral += tw.lastV * float64(t-tw.lastT)
	}
	return integral / float64(t-tw.startT)
}
