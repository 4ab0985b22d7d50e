package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"clnlr/internal/stats"
)

// PanicError wraps a panic recovered from one parallel job, preserving
// the panic value and the goroutine stack at the point of failure.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// ResolveWorkers returns the pool size ParallelForWorkers actually uses
// for n jobs: min(workers, n), with workers ≤ 0 meaning GOMAXPROCS.
// Callers binding per-worker state (warm engines) size their slices with
// this.
func ResolveWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelForWorkers runs fn(worker, 0..n-1) across a bounded worker
// pool: only ResolveWorkers(n, workers) goroutines are spawned, and they
// drain a shared atomic counter, so a job set of thousands of cells costs
// a handful of goroutines rather than one per index. Each index owns its
// slot in any result slice, so callers need no further synchronisation.
// Each worker index (0..pool-1) is owned by exactly one goroutine for
// the whole call, so fn can keep per-worker reusable state — warm
// simulation engines — in a slice indexed by it without locking. The
// experiments planner flattens every cell's replications into one call.
//
// Panic containment: a panic inside fn is recovered into a *PanicError
// (value + stack) at that index of the returned slice and the worker
// moves on to its next job — one poisoned cell out of thousands must not
// take down a whole sweep. The return is nil when every index completed.
// Callers holding per-worker state fn mutates mid-job (warm engines)
// should treat it as garbage for indices that panicked and rebuild.
func ParallelForWorkers(n, workers int, fn func(worker, i int)) []error {
	if n <= 0 {
		return nil
	}
	var (
		errs   []error
		errsMu sync.Mutex
	)
	record := func(i int, err error) {
		errsMu.Lock()
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
		errsMu.Unlock()
	}
	call := func(worker, i int) {
		defer func() {
			if v := recover(); v != nil {
				record(i, &PanicError{Value: v, Stack: debug.Stack()})
			}
		}()
		fn(worker, i)
	}
	workers = ResolveWorkers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			call(0, i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				call(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// Metric extracts one scalar from a Result (for summarising replications).
type Metric func(Result) float64

// Standard metrics used by the figure harness.
var (
	MetricPDR          Metric = func(r Result) float64 { return r.PDR }
	MetricDelayMs      Metric = func(r Result) float64 { return r.MeanDelaySec * 1000 }
	MetricThroughput   Metric = func(r Result) float64 { return r.ThroughputKbps }
	MetricRREQTx       Metric = func(r Result) float64 { return float64(r.RREQTx) }
	MetricRREQPerDisc  Metric = func(r Result) float64 { return r.RREQPerDiscovery }
	MetricNormOverhead Metric = func(r Result) float64 { return r.NormOverhead }
	MetricDiscovery    Metric = func(r Result) float64 { return r.DiscoveryRate }
	MetricForwardStd   Metric = func(r Result) float64 { return r.ForwardStd }
	MetricForwardMax   Metric = func(r Result) float64 { return r.ForwardMaxRatio }
)

// Summarize reduces a replication set to mean ± 95% CI for one metric.
func Summarize(results []Result, m Metric) stats.Summary {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = m(r)
	}
	return stats.Summarize(xs)
}

// Energy and fairness metrics.
var (
	MetricEnergyMean Metric = func(r Result) float64 { return r.EnergyMeanJ }
	MetricEnergyMax  Metric = func(r Result) float64 { return r.EnergyMaxJ }
	MetricFairness   Metric = func(r Result) float64 { return r.FlowFairness }
	MetricDelayP95Ms Metric = func(r Result) float64 { return r.DelayP95Sec * 1000 }
	MetricDelayP50Ms Metric = func(r Result) float64 { return r.DelayP50Sec * 1000 }
	MetricDelayP99Ms Metric = func(r Result) float64 { return r.DelayP99Sec * 1000 }
)
