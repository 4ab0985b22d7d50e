package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMiB is the heap still reachable after collection. The second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp times a kernel: it grows the batch until one batch fills a tenth
// of the budget, runs six more batches of that size and returns the
// median host nanoseconds per operation and the DES events per operation.
func perOp(k kernel, budget time.Duration) (ns, eventsPerOp float64) {
	n := 1
	var samples []float64
	ops := 0
	var e0 uint64
	if k.events != nil {
		e0 = k.events()
	}
	for {
		t := time.Now()
		k.run(n)
		d := time.Since(t)
		ops += n
		if d >= budget/10 || n >= 1<<26 {
			samples = append(samples, float64(d)/float64(n))
			break
		}
		n *= 2
	}
	for i := 0; i < 6; i++ {
		t := time.Now()
		k.run(n)
		samples = append(samples, float64(time.Since(t))/float64(n))
		ops += n
	}
	if k.events != nil {
		eventsPerOp = float64(k.events()-e0) / float64(ops)
	}
	return median(samples), eventsPerOp
}
