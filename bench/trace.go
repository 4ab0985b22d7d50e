package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the harness made into a layer's exported API. Spans
// are recorded from the benchmark's own files only; spans inside the
// simulator are a later change.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil tracer records nothing, so untraced runs share the code
// path and pay one nil check per call.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	stack    []int // indices of open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.spans[t.stack[len(t.stack)-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(time.Since(t.t0)),
	})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.EndNs = int64(time.Since(t.t0))
	s.SelfNs += s.EndNs - s.StartNs
	if len(t.stack) > 0 {
		t.spans[t.stack[len(t.stack)-1]].SelfNs -= s.EndNs - s.StartNs
	}
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(data, '\n'), 0o644)
}
