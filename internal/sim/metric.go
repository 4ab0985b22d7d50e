package sim

import "clnlr/internal/stats"

// Metric extracts one scalar from a Result (for summarising replications).
type Metric func(Result) float64

// Standard metrics used by the figure harness.
var (
	MetricPDR          Metric = func(r Result) float64 { return r.PDR }
	MetricDelayMs      Metric = func(r Result) float64 { return r.MeanDelaySec * 1000 }
	MetricThroughput   Metric = func(r Result) float64 { return r.ThroughputKbps }
	MetricRREQTx       Metric = func(r Result) float64 { return float64(r.RREQTx) }
	MetricNormOverhead Metric = func(r Result) float64 { return r.NormOverhead }
	MetricDiscovery    Metric = func(r Result) float64 { return r.DiscoveryRate }
	MetricForwardStd   Metric = func(r Result) float64 { return r.ForwardStd }
	MetricForwardMax   Metric = func(r Result) float64 { return r.ForwardMaxRatio }
)

// Discovery-probe metrics (Scenario.Probes; undefined without probes).
var (
	MetricRREQPerProbe   Metric = func(r Result) float64 { return float64(r.RREQTx) / float64(r.ProbesSent) }
	MetricProbeSuccess   Metric = func(r Result) float64 { return float64(r.ProbesDelivered) / float64(r.ProbesSent) }
	MetricProbeLatencyMs Metric = func(r Result) float64 { return r.ProbeDelaySec * 1000 }
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
	MetricFairness   Metric = func(r Result) float64 { return r.FlowFairness }
	MetricDelayP95Ms Metric = func(r Result) float64 { return r.DelayP95Sec * 1000 }
)
