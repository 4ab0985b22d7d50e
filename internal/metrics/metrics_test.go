package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"clnlr/internal/des"
)

func TestRegistry(t *testing.T) {
	var r Registry
	r.Add("mac/retries", 3)
	r.Add("radio/transmissions", 10)
	r.Add("mac/retries", 2)
	if got := r.Get("mac/retries"); got != 5 {
		t.Errorf("mac/retries = %d, want 5", got)
	}
	if got := r.Get("never-registered"); got != 0 {
		t.Errorf("unregistered counter = %d, want 0", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}

	m := r.Map()
	if m["radio/transmissions"] != 10 {
		t.Errorf("Map: %v", m)
	}

	r.Reset()
	if r.Len() != 2 {
		t.Errorf("Reset dropped names: Len = %d", r.Len())
	}
	if r.Get("mac/retries") != 0 || r.Get("radio/transmissions") != 0 {
		t.Error("Reset did not zero values")
	}
	r.Add("mac/retries", 1)
	if r.Get("mac/retries") != 1 {
		t.Error("counter unusable after Reset")
	}
}

// fill records two ticks over three nodes with distinguishable values.
func fill(c *Collector) {
	c.Begin(3, 2)
	c.BeginTick(0)
	for n := 0; n < 3; n++ {
		c.Set(n, Sample{Queue: n, Load: float64(n) * 0.25, Routes: n + 1, Up: true})
	}
	c.BeginTick(des.Second)
	for n := 0; n < 3; n++ {
		c.Set(n, Sample{Queue: n + 10, Load: 0.5 + float64(n)*0.1, DupCache: n, Up: n != 1})
	}
	c.Add("mac/retries", 7)
	c.FinishRun(des.Second, 1234, 0)
}

func TestCollectorSeries(t *testing.T) {
	c := NewCollector(des.Second)
	if c.SampleInterval() != des.Second {
		t.Errorf("SampleInterval = %v", c.SampleInterval())
	}
	fill(c)
	if c.Ticks() != 2 || c.NumNodes() != 3 {
		t.Fatalf("ticks=%d nodes=%d", c.Ticks(), c.NumNodes())
	}
	if c.times[1] != des.Second {
		t.Errorf("tick 1 at %v", c.times[1])
	}
	s := c.At(1, 2)
	if s.Queue != 12 || !s.Up || s.DupCache != 2 {
		t.Errorf("At(1,2) = %+v", s)
	}
	if s := c.At(1, 1); s.Up {
		t.Error("node 1 should be down at tick 1")
	}
	if c.Events() != 1234 || c.SimTime() != des.Second {
		t.Errorf("envelope events=%d simTime=%v", c.Events(), c.SimTime())
	}
}

func TestCollectorWarmReuse(t *testing.T) {
	c := NewCollector(des.Second)
	fill(c)
	first := c.Counters().Map()

	// A second identical run on the same collector must produce identical
	// state — Begin clears without keeping stale samples or counts.
	fill(c)
	if c.Ticks() != 2 || c.NumNodes() != 3 {
		t.Fatalf("warm reuse: ticks=%d nodes=%d", c.Ticks(), c.NumNodes())
	}
	if got := c.Counters().Map(); got["mac/retries"] != first["mac/retries"] {
		t.Errorf("warm counters %v, first %v", got, first)
	}

	// Shrinking the node count must not read stale tail samples.
	c.Begin(2, 1)
	c.BeginTick(0)
	c.Set(0, Sample{Queue: 99})
	c.Set(1, Sample{Queue: 98})
	if c.At(0, 1).Queue != 98 {
		t.Errorf("after shrink At(0,1) = %+v", c.At(0, 1))
	}
}

// TestCollectorSizedOnce: Begin sizes the series for the whole run, so no
// tick allocates, and a reused collector allocates nothing for a run no
// larger than one it has already held — in either dimension.
func TestCollectorSizedOnce(t *testing.T) {
	c := NewCollector(des.Second)
	run := func(nodes, ticks int) {
		c.Begin(nodes, ticks)
		for k := 0; k < ticks; k++ {
			c.BeginTick(des.Time(k) * des.Second)
			for n := 0; n < nodes; n++ {
				c.Set(n, Sample{Queue: k + n})
			}
		}
	}
	c.Begin(49, 301)
	if allocs := testing.AllocsPerRun(5, func() { c.BeginTick(0) }); allocs != 0 {
		t.Fatalf("a tick after Begin allocates %v times", allocs)
	}
	run(49, 301)
	for _, size := range [][2]int{{49, 301}, {16, 51}, {100, 147}} {
		if allocs := testing.AllocsPerRun(3, func() { run(size[0], size[1]) }); allocs != 0 {
			t.Errorf("a %d-node, %d-tick run on a collector that held 49×301 allocates %v times", size[0], size[1], allocs)
		}
	}
}

func TestWriteHeatmapCSV(t *testing.T) {
	c := NewCollector(des.Second)
	fill(c)
	var buf bytes.Buffer
	if err := c.WriteHeatmapCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 node rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "node,0,1" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != "1,0.25,0.6" {
		t.Errorf("node 1 row = %q", lines[2])
	}

	// Byte determinism: a second export must be identical.
	var buf2 bytes.Buffer
	if err := c.WriteHeatmapCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("heatmap export not byte-deterministic")
	}
}

func TestWriteNDJSON(t *testing.T) {
	c := NewCollector(des.Second)
	fill(c)
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d records, want 2 ticks × 3 nodes", len(lines))
	}
	var rec SeriesRecord
	// Tick-major order: record 4 is tick 1, node 1.
	if err := json.Unmarshal([]byte(lines[4]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.T != des.Second || rec.Node != 1 || rec.Queue != 11 || rec.Up {
		t.Errorf("record 4 = %+v", rec)
	}
}

func TestRunReportJSON(t *testing.T) {
	rep := RunReport{
		Name:        "F-R3",
		Scheme:      "clnlr",
		Seed:        42,
		Nodes:       49,
		Fingerprint: "deadbeefdeadbeef",
		SimSeconds:  60,
		Counters:    map[string]uint64{"mac/retries": 5},
		Metrics:     map[string]float64{"pdr": 0.97},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != rep.Name || back.Counters["mac/retries"] != 5 || back.Metrics["pdr"] != 0.97 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if !strings.Contains(buf.String(), "\n") {
		t.Error("report JSON should be indented for humans")
	}
}

func TestCountersOnlyCollector(t *testing.T) {
	c := NewCollector(0)
	c.Begin(5, 0)
	c.Add("routing/rreq-originated", 3)
	if c.Ticks() != 0 {
		t.Errorf("counters-only collector recorded %d ticks", c.Ticks())
	}
	var buf bytes.Buffer
	if err := c.WriteHeatmapCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters().Get("routing/rreq-originated"); got != 3 {
		t.Errorf("counter = %d", got)
	}
}
