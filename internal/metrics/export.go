package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/pkt"
)

// WriteHeatmapCSV writes the composite load index as a node×time matrix:
// the header row is "node" followed by each sampling instant in seconds,
// and each subsequent row is one node's load series. Floats are rendered
// with strconv's shortest round-trip formatting, so the bytes are a pure
// function of the sampled values — the golden determinism tests compare
// this output byte-for-byte across radio fast/reference paths and
// warm/cold engines.
func (c *Collector) WriteHeatmapCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("node")
	for _, t := range c.times {
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatFloat(t.Seconds(), 'g', -1, 64))
	}
	bw.WriteByte('\n')
	for n := 0; n < c.nodes; n++ {
		bw.WriteString(strconv.Itoa(n))
		for k := range c.times {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(c.At(k, n).Load, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// SeriesRecord is one (tick, node) line of the NDJSON series dump: the
// Sample's fields under its JSON names, after T (simulated nanoseconds)
// and the node.
type SeriesRecord struct {
	T    des.Time   `json:"t"`
	Node pkt.NodeID `json:"node"`
	Sample
}

// WriteNDJSON streams every sample as newline-delimited JSON, tick-major
// then node order.
func (c *Collector) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for k := range c.times {
		for n := 0; n < c.nodes; n++ {
			rec := SeriesRecord{T: c.times[k], Node: pkt.NodeID(n), Sample: c.At(k, n)}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// RunReport is the machine-readable summary of one instrumented run: the
// scenario fingerprint, the run envelope (simulated vs wall time, DES
// events), every registered counter, and the Result-derived metrics.
// WallSeconds/SimPerWall are host measurements and therefore the only
// non-deterministic fields; everything else is bit-reproducible.
type RunReport struct {
	Name        string `json:"name"`
	Scheme      string `json:"scheme"`
	Seed        uint64 `json:"seed"`
	Nodes       int    `json:"nodes"`
	Fingerprint string `json:"fingerprint"`

	SimSeconds     float64 `json:"sim_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	SimPerWall     float64 `json:"sim_s_per_wall_s"`
	EventsExecuted uint64  `json:"events_executed"`

	SampleIntervalSec float64 `json:"sample_interval_sec"`
	Samples           int     `json:"samples"`

	Counters map[string]uint64  `json:"counters"`
	Metrics  map[string]float64 `json:"metrics"`

	// Diagnostics are resource-behaviour counters (today the audible-set
	// rebuilds) kept outside Counters: they count the engine's own work,
	// which the reference radio path does differently. Each restarts with
	// its run, so a warm engine reports what a cold one does.
	Diagnostics map[string]uint64 `json:"diagnostics,omitempty"`

	// Journey, when the run traced packet journeys, is the per-layer delay
	// decomposition and decision-provenance summary.
	Journey *journey.Report `json:"journey,omitempty"`
}

// Canonical returns a copy with the host-measured fields (WallSeconds,
// SimPerWall) zeroed — the rest of the report is bit-reproducible, so the
// canonical form's WriteJSON bytes are a pure function of the scenario.
// This is the form meshsimd caches and serves: it is what makes "a served
// report equals a directly-run report, byte for byte" a testable contract,
// and what lets a cache hit return the same bytes a cold run produced.
func (r RunReport) Canonical() RunReport {
	r.WallSeconds = 0
	r.SimPerWall = 0
	return r
}

// WriteJSON writes the report as indented JSON (map keys sorted by
// encoding/json, so the byte stream is stable).
func (r RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
