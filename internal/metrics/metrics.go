// Package metrics is the simulator's flight recorder: an opt-in,
// allocation-light instrumentation layer that captures per-node load
// time-series and per-layer monotonic counters for a run, and exports
// them as a node×time heatmap CSV, an NDJSON series dump, and a
// machine-readable RunReport.
//
// The layer is zero-overhead when disabled. The simulation harness takes
// a *Collector pointer and does nothing when it is nil — one branch, no
// allocation, no extra DES events — the nil-checked hook pattern the
// journey recorder and the stall watchdog share. When enabled, sampling is driven by pre-scheduled DES events
// whose handlers only read protocol state, so an instrumented run is
// bit-identical (same Result, same RNG consumption) to an uninstrumented
// one; see the determinism contract in DESIGN.md §10.
//
// A Collector is single-goroutine like the simulation it observes; reuse
// it across runs via Begin, which resets in place keeping grown storage
// (the warm-replication pattern). Progress (progress.go) is the one
// concurrency-safe type here: it aggregates job completions across the
// experiment worker pool for live sweep visibility.
package metrics

import (
	"slices"
	"time"

	"clnlr/internal/des"
)

// Sample is one node's instantaneous cross-layer state at a sampling
// instant: the MAC-layer load signal CLNLR routes on (queue occupancy,
// channel-busy fraction and their composite load index), raw queue
// length, routing-table and duplicate-cache occupancy, and liveness.
type Sample struct {
	// Queue is the instantaneous interface-queue length (frames,
	// including the one in service).
	Queue int `json:"queue"`
	// QueueOcc, BusyFrac and Load are the MAC's smoothed cross-layer
	// load measurements (mac.LoadStats), all in [0,1]. Load is the
	// composite index: QueueLoadWeight·QueueOcc + (1−w)·BusyFrac.
	QueueOcc float64 `json:"queue_occ"`
	BusyFrac float64 `json:"busy_frac"`
	Load     float64 `json:"load"`
	// Routes is the routing-table occupancy; DupCache the number of live
	// entries in the RREQ duplicate cache (floods a lookup would still
	// report as seen).
	Routes   int `json:"routes"`
	DupCache int `json:"dup_cache"`
	// Up is false while the node is crashed.
	Up bool `json:"up"`
}

// Registry is a typed set of named monotonic counters. Names register on
// first use and persist across Reset (only the values zero), so warm
// reuse never re-allocates the name table.
type Registry struct {
	idx   map[string]int
	names []string
	vals  []uint64
}

// Add increments the named counter by v, registering the name on first
// use.
func (r *Registry) Add(name string, v uint64) {
	if r.idx == nil {
		r.idx = make(map[string]int)
	}
	i, ok := r.idx[name]
	if !ok {
		i = len(r.vals)
		r.idx[name] = i
		r.names = append(r.names, name)
		r.vals = append(r.vals, 0)
	}
	r.vals[i] += v
}

// Get returns the named counter's value (0 if never registered).
func (r *Registry) Get(name string) uint64 {
	if i, ok := r.idx[name]; ok {
		return r.vals[i]
	}
	return 0
}

// Len returns the number of registered counters.
func (r *Registry) Len() int { return len(r.names) }

// Map returns a fresh name→value map of every registered counter.
func (r *Registry) Map() map[string]uint64 {
	m := make(map[string]uint64, len(r.names))
	for i, name := range r.names {
		m[name] = r.vals[i]
	}
	return m
}

// Reset zeroes every counter, keeping the registered names.
func (r *Registry) Reset() {
	for i := range r.vals {
		r.vals[i] = 0
	}
}

// Collector accumulates one run's time-series samples and counters. The
// per-node series live in two flat slices (times, and len(times)×nodes
// samples) that Begin sizes for the whole run, so sampling never grows
// them, and a collector reused across runs allocates its series once.
type Collector struct {
	interval des.Time
	nodes    int

	times   []des.Time
	samples []Sample

	reg Registry

	// diag is a second registry for diagnostics: counters of the
	// engine's own work (audible-set rebuilds) that the reference radio
	// path does differently, so they are NOT part of the golden counter
	// contract and are reported separately.
	diag Registry

	// Run envelope, filled by FinishRun.
	simTime des.Time
	events  uint64
	wall    time.Duration
}

// NewCollector returns a collector sampling every interval of simulated
// time. interval ≤ 0 disables time-series sampling (counters only) —
// the cheap mode sweep runners use for per-cell reports.
func NewCollector(interval des.Time) *Collector {
	return &Collector{interval: interval}
}

// SampleInterval returns the configured sampling interval.
func (c *Collector) SampleInterval() des.Time { return c.interval }

// SetSampleInterval changes the sampling interval for the runs that follow
// (≤ 0: counters only), so one collector can serve runs that ask for
// different intervals.
func (c *Collector) SetSampleInterval(interval des.Time) { c.interval = interval }

// Begin prepares the collector for a run over n nodes that will take up to
// ticks samples, clearing any previous run's series and counters. The
// series storage grows once to ticks×n and is kept for later runs.
func (c *Collector) Begin(n, ticks int) {
	c.nodes = n
	c.times = slices.Grow(c.times[:0], ticks)
	c.samples = slices.Grow(c.samples[:0], ticks*n)
	c.reg.Reset()
	c.diag.Reset()
	c.simTime = 0
	c.events = 0
	c.wall = 0
}

// BeginTick opens a new sampling instant at simulated time t; the caller
// then fills every node's slot with Set.
func (c *Collector) BeginTick(t des.Time) {
	c.times = append(c.times, t)
	k := len(c.samples)
	c.samples = slices.Grow(c.samples, c.nodes)[:k+c.nodes]
	clear(c.samples[k:])
}

// Set stores node i's sample for the tick opened by the last BeginTick.
func (c *Collector) Set(node int, s Sample) {
	c.samples[(len(c.times)-1)*c.nodes+node] = s
}

// Add increments a named monotonic counter (e.g. "mac/retries").
func (c *Collector) Add(name string, v uint64) { c.reg.Add(name, v) }

// AddDiag increments a named diagnostic counter (e.g. "radio/audible-rebuilds").
// Diagnostics are excluded from Counters and from the golden counter
// contract; see the diag field.
func (c *Collector) AddDiag(name string, v uint64) { c.diag.Add(name, v) }

// Counters exposes the counter registry.
func (c *Collector) Counters() *Registry { return &c.reg }

// Diagnostics exposes the diagnostics registry.
func (c *Collector) Diagnostics() *Registry { return &c.diag }

// Ticks returns the number of sampling instants recorded.
func (c *Collector) Ticks() int { return len(c.times) }

// NumNodes returns the node count of the observed run.
func (c *Collector) NumNodes() int { return c.nodes }

// At returns node's sample at tick k.
func (c *Collector) At(k, node int) Sample { return c.samples[k*c.nodes+node] }

// FinishRun records the run envelope: total simulated time, DES events
// executed, and wall-clock duration.
func (c *Collector) FinishRun(simTime des.Time, events uint64, wall time.Duration) {
	c.simTime = simTime
	c.events = events
	c.wall = wall
}

// SimTime returns the simulated duration recorded by FinishRun.
func (c *Collector) SimTime() des.Time { return c.simTime }

// Events returns the DES event count recorded by FinishRun.
func (c *Collector) Events() uint64 { return c.events }

// Wall returns the wall-clock duration recorded by FinishRun.
func (c *Collector) Wall() time.Duration { return c.wall }
