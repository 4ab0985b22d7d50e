// Package trace provides structured event tracing for simulation runs.
// Tracing is opt-in and zero-cost when disabled: layers emit through a
// nil-checked hook. Records can be buffered in a bounded ring for
// post-run inspection or streamed as NDJSON for external tooling.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

// Record is one traced event.
type Record struct {
	// T is the simulation time in nanoseconds.
	T des.Time `json:"t"`
	// Node is the reporting node.
	Node pkt.NodeID `json:"node"`
	// Layer identifies the stack layer ("routing", "mac", ...).
	Layer string `json:"layer"`
	// Event is the event name ("rreq-forward", "data-drop", ...).
	Event string `json:"event"`
	// Detail is a free-form human-readable annotation.
	Detail string `json:"detail,omitempty"`
}

// String renders the record as one log line.
func (r Record) String() string {
	return fmt.Sprintf("%s %v %s/%s %s", r.T, r.Node, r.Layer, r.Event, r.Detail)
}

// Sink consumes records.
type Sink interface {
	Record(Record)
}

// Buffer is a bounded ring of recent records (oldest evicted first).
type Buffer struct {
	cap     int
	records []Record
	start   int
	total   uint64
}

// NewBuffer creates a ring holding up to capacity records.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive buffer capacity")
	}
	return &Buffer{cap: capacity}
}

// Record implements Sink.
func (b *Buffer) Record(r Record) {
	b.total++
	if len(b.records) < b.cap {
		b.records = append(b.records, r)
		return
	}
	b.records[b.start] = r
	b.start = (b.start + 1) % b.cap
}

// Len returns the number of buffered records.
func (b *Buffer) Len() int { return len(b.records) }

// Total returns the number of records ever offered (including evicted).
func (b *Buffer) Total() uint64 { return b.total }

// All returns the buffered records oldest-first.
func (b *Buffer) All() []Record {
	out := make([]Record, 0, len(b.records))
	for i := 0; i < len(b.records); i++ {
		out = append(out, b.records[(b.start+i)%len(b.records)])
	}
	return out
}

// Filter returns buffered records matching the (optional) node, layer and
// event-substring criteria; pass node < 0, "" to skip a criterion.
func (b *Buffer) Filter(node pkt.NodeID, layer, eventSub string) []Record {
	var out []Record
	for _, r := range b.All() {
		if node >= 0 && r.Node != node {
			continue
		}
		if layer != "" && r.Layer != layer {
			continue
		}
		if eventSub != "" && !strings.Contains(r.Event, eventSub) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// WriteNDJSON streams the buffered records as newline-delimited JSON.
func (b *Buffer) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range b.All() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// Writer is a Sink that renders each record as a text line.
type Writer struct {
	W io.Writer
}

// Record implements Sink.
func (w Writer) Record(r Record) {
	fmt.Fprintln(w.W, r.String())
}
