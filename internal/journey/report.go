package journey

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"clnlr/internal/stats"
)

// Histogram geometry for the delay decomposition: 0.1 ms .. 1000 s at 32
// buckets per decade (~7.5% relative resolution). Per-layer spans of zero
// (a packet that never retried, say) land in the underflow counter and pin
// that layer's quantiles at the low edge; means stay exact via the sum.
const (
	histLo        = 1e-4
	histHi        = 1e3
	histPerDecade = 32
)

func newHist() *stats.LogHistogram {
	return stats.NewLogHistogram(histLo, histHi, histPerDecade)
}

// Agg accumulates journeys and decision provenance across runs (and
// merges across workers) into the delay-decomposition histograms. All
// histogram samples are seconds.
type Agg struct {
	EveryN    int
	Sampled   int64 // journeys closed (any outcome)
	Delivered int64
	Drops     map[string]int64 // by "drop-…" outcome (plus "unresolved")

	// End-to-end delay of delivered journeys, and its per-layer
	// decomposition (each sample is one packet's total span in that layer
	// summed over its hops).
	Total   *stats.LogHistogram
	Routing *stats.LogHistogram
	Queue   *stats.LogHistogram
	Access  *stats.LogHistogram
	Retry   *stats.LogHistogram
	Air     *stats.LogHistogram

	// ByHops buckets delivered end-to-end delay by path length.
	ByHops map[int]*stats.LogHistogram

	HopsSum     int64 // delivered hops (path lengths)
	AttemptsSum int64 // delivered data-tx attempts

	// RREQ forwarding decisions.
	RREQDecisions int64
	RREQForwarded int64
	PSum          float64
	NLSum         float64

	// RREP-WAIT selections.
	Selections     int64
	CandidatesSum  int64
	WinnerNotFirst int64 // windows whose winner was not the first arrival
}

// NewAgg creates an empty aggregate for a recorder sampling 1-in-everyN.
func NewAgg(everyN int) *Agg {
	return &Agg{
		EveryN:  everyN,
		Drops:   make(map[string]int64),
		Total:   newHist(),
		Routing: newHist(),
		Queue:   newHist(),
		Access:  newHist(),
		Retry:   newHist(),
		Air:     newHist(),
		ByHops:  make(map[int]*stats.LogHistogram),
	}
}

// Aggregate folds one finished run's recordings into a. The recorder is
// left untouched (Begin recycles it for the next run).
func (r *Recorder) Aggregate(a *Agg) {
	for _, j := range r.closed {
		a.Sampled++
		if j.Outcome != OutcomeDelivered {
			a.Drops[j.Outcome]++
			continue
		}
		a.Delivered++
		var routing, queue, access, retry, air int64
		attempts := 0
		for i := range j.Hops {
			h := &j.Hops[i]
			routing += h.RoutingNs
			queue += h.QueueNs
			access += h.AccessNs
			retry += h.RetryNs
			air += h.AirNs
			attempts += h.Attempts
		}
		total := float64(j.DoneNs-j.CreatedNs) / 1e9
		a.Total.Add(total)
		a.Routing.Add(float64(routing) / 1e9)
		a.Queue.Add(float64(queue) / 1e9)
		a.Access.Add(float64(access) / 1e9)
		a.Retry.Add(float64(retry) / 1e9)
		a.Air.Add(float64(air) / 1e9)
		hops := len(j.Hops)
		bh := a.ByHops[hops]
		if bh == nil {
			bh = newHist()
			a.ByHops[hops] = bh
		}
		bh.Add(total)
		a.HopsSum += int64(hops)
		a.AttemptsSum += int64(attempts)
	}
	for i := range r.rreq {
		d := &r.rreq[i]
		a.RREQDecisions++
		if d.Forwarded {
			a.RREQForwarded++
		}
		a.PSum += d.P
		a.NLSum += d.NL
	}
	for i := range r.selections {
		s := &r.selections[i]
		a.Selections++
		a.CandidatesSum += int64(len(s.Candidates))
		if len(s.Candidates) > 0 && s.Candidates[0].From != s.WinnerFrom {
			a.WinnerNotFirst++
		}
	}
}

// Merge folds another aggregate (same sampling divisor) into a.
func (a *Agg) Merge(o *Agg) {
	if o == nil {
		return
	}
	a.Sampled += o.Sampled
	a.Delivered += o.Delivered
	for k, v := range o.Drops {
		a.Drops[k] += v
	}
	a.Total.Merge(o.Total)
	a.Routing.Merge(o.Routing)
	a.Queue.Merge(o.Queue)
	a.Access.Merge(o.Access)
	a.Retry.Merge(o.Retry)
	a.Air.Merge(o.Air)
	for hops, h := range o.ByHops {
		bh := a.ByHops[hops]
		if bh == nil {
			bh = newHist()
			a.ByHops[hops] = bh
		}
		bh.Merge(h)
	}
	a.HopsSum += o.HopsSum
	a.AttemptsSum += o.AttemptsSum
	a.RREQDecisions += o.RREQDecisions
	a.RREQForwarded += o.RREQForwarded
	a.PSum += o.PSum
	a.NLSum += o.NLSum
	a.Selections += o.Selections
	a.CandidatesSum += o.CandidatesSum
	a.WinnerNotFirst += o.WinnerNotFirst
}

// LayerStat summarises one delay component in milliseconds.
type LayerStat struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func layerStat(h *stats.LogHistogram) LayerStat {
	if h.Count() == 0 {
		return LayerStat{}
	}
	return LayerStat{
		MeanMs: h.Mean() * 1e3,
		P50Ms:  h.Quantile(0.5) * 1e3,
		P95Ms:  h.Quantile(0.95) * 1e3,
		P99Ms:  h.Quantile(0.99) * 1e3,
	}
}

// HopStat summarises delivered delay at one path length.
type HopStat struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P95Ms  float64 `json:"p95_ms"`
}

// DecisionStats summarises RREQ forwarding provenance.
type DecisionStats struct {
	Count     int64   `json:"count"`
	Forwarded int64   `json:"forwarded"`
	MeanP     float64 `json:"mean_p"`
	MeanNL    float64 `json:"mean_nl"`
}

// SelectionStats summarises RREP-WAIT selection provenance.
type SelectionStats struct {
	Count          int64   `json:"count"`
	MeanCandidates float64 `json:"mean_candidates"`
	// WinnerNotFirst counts windows where collecting paid off: the copy
	// replied to was not the first to arrive (first-RREQ-wins would have
	// chosen a costlier path).
	WinnerNotFirst int64 `json:"winner_not_first"`
}

// Report is the JSON-facing delay decomposition folded into RunReport and
// CellReport.
type Report struct {
	EveryN    int              `json:"sample_every_n"`
	Sampled   int64            `json:"sampled"`
	Delivered int64            `json:"delivered"`
	Drops     map[string]int64 `json:"drops,omitempty"`

	Delay  LayerStat            `json:"delay"`
	Layers map[string]LayerStat `json:"layers"`

	MeanHops           float64         `json:"mean_hops"`
	MeanAttemptsPerHop float64         `json:"mean_attempts_per_hop"`
	ByHops             map[int]HopStat `json:"by_hops,omitempty"`

	Decisions  *DecisionStats  `json:"rreq_decisions,omitempty"`
	Selections *SelectionStats `json:"reply_selections,omitempty"`
}

// Report renders the aggregate.
func (a *Agg) Report() *Report {
	rep := &Report{
		EveryN:    a.EveryN,
		Sampled:   a.Sampled,
		Delivered: a.Delivered,
		Delay:     layerStat(a.Total),
		Layers: map[string]LayerStat{
			"routing": layerStat(a.Routing),
			"queue":   layerStat(a.Queue),
			"access":  layerStat(a.Access),
			"retry":   layerStat(a.Retry),
			"air":     layerStat(a.Air),
		},
	}
	if len(a.Drops) > 0 {
		rep.Drops = make(map[string]int64, len(a.Drops))
		for k, v := range a.Drops {
			rep.Drops[k] = v
		}
	}
	if a.Delivered > 0 {
		rep.MeanHops = float64(a.HopsSum) / float64(a.Delivered)
		if a.HopsSum > 0 {
			rep.MeanAttemptsPerHop = float64(a.AttemptsSum) / float64(a.HopsSum)
		}
	}
	if len(a.ByHops) > 0 {
		rep.ByHops = make(map[int]HopStat, len(a.ByHops))
		for hops, h := range a.ByHops {
			rep.ByHops[hops] = HopStat{
				Count:  h.Count(),
				MeanMs: h.Mean() * 1e3,
				P95Ms:  h.Quantile(0.95) * 1e3,
			}
		}
	}
	if a.RREQDecisions > 0 {
		rep.Decisions = &DecisionStats{
			Count:     a.RREQDecisions,
			Forwarded: a.RREQForwarded,
			MeanP:     a.PSum / float64(a.RREQDecisions),
			MeanNL:    a.NLSum / float64(a.RREQDecisions),
		}
	}
	if a.Selections > 0 {
		rep.Selections = &SelectionStats{
			Count:          a.Selections,
			MeanCandidates: float64(a.CandidatesSum) / float64(a.Selections),
			WinnerNotFirst: a.WinnerNotFirst,
		}
	}
	return rep
}

// --- NDJSON IO ---

// WriteJourneysNDJSON writes the closed journeys, one JSON object per
// line, in completion order (deterministic for a deterministic run).
func (r *Recorder) WriteJourneysNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, j := range r.closed {
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decisionLine wraps each decision record with a type tag so one NDJSON
// stream carries both kinds.
type decisionLine struct {
	Type string          `json:"type"`
	RREQ *RREQDecision   `json:"rreq,omitempty"`
	Sel  *ReplySelection `json:"select,omitempty"`
}

// WriteDecisionsNDJSON writes the decision provenance: every RREQ
// forwarding decision (type "rreq") followed by every RREP-WAIT selection
// (type "select"), each in event order.
func (r *Recorder) WriteDecisionsNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.rreq {
		if err := enc.Encode(decisionLine{Type: "rreq", RREQ: &r.rreq[i]}); err != nil {
			return err
		}
	}
	for i := range r.selections {
		if err := enc.Encode(decisionLine{Type: "select", Sel: &r.selections[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRouteEventsNDJSON writes the route events, one JSON object per
// line, in event order (meshsim -trace, read by traceview).
func (r *Recorder) WriteRouteEventsNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.routes {
		if err := enc.Encode(&r.routes[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLine caps one NDJSON record: a healthy record is a few hundred bytes
// (a long journey a few KiB), so 4 MiB only trips on corrupt or
// non-NDJSON input.
const maxLine = 4 << 20

// ReadNDJSON parses a stream of newline-delimited records of type T —
// journeys (meshsim -journey-out) or route events (meshsim -trace).
// Whitespace-only lines are skipped; a malformed or oversized line aborts
// with its line number.
func ReadNDJSON[T any](rd io.Reader) ([]T, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	var out []T
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, fmt.Errorf("journey: line %d: %w", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("journey: line %d exceeds the %d MiB record limit — is this really NDJSON (one record per line)?: %w",
				line+1, maxLine>>20, err)
		}
		return nil, fmt.Errorf("journey: %w", err)
	}
	return out, nil
}
