package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

func rec(t des.Time, node pkt.NodeID, event string) Record {
	return Record{T: t, Node: node, Layer: "routing", Event: event}
}

func TestBufferOrderAndEviction(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Record(rec(des.Time(i), 0, "e"))
	}
	if b.Len() != 3 {
		t.Fatalf("len %d", b.Len())
	}
	if b.Total() != 5 {
		t.Fatalf("total %d", b.Total())
	}
	all := b.All()
	for i, r := range all {
		if r.T != des.Time(i+2) {
			t.Fatalf("eviction order wrong: %v", all)
		}
	}
}

func TestBufferFilter(t *testing.T) {
	b := NewBuffer(10)
	b.Record(rec(1, 1, "rreq-forward"))
	b.Record(rec(2, 2, "rreq-suppress"))
	b.Record(rec(3, 1, "data-deliver"))
	if got := b.Filter(1, "", ""); len(got) != 2 {
		t.Fatalf("node filter got %d", len(got))
	}
	if got := b.Filter(-1, "routing", "rreq"); len(got) != 2 {
		t.Fatalf("event filter got %d", len(got))
	}
	if got := b.Filter(-1, "mac", ""); len(got) != 0 {
		t.Fatalf("layer filter got %d", len(got))
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	b := NewBuffer(4)
	b.Record(Record{T: 5, Node: 3, Layer: "routing", Event: "x", Detail: "d=1"})
	var buf bytes.Buffer
	if err := b.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var r Record
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.T != 5 || r.Node != 3 || r.Event != "x" || r.Detail != "d=1" {
		t.Fatalf("round trip %+v", r)
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	w := Writer{W: &buf}
	w.Record(rec(des.Second, 7, "hello"))
	if !strings.Contains(buf.String(), "n7") || !strings.Contains(buf.String(), "hello") {
		t.Fatalf("writer output %q", buf.String())
	}
}

func TestNewBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer(0) did not panic")
		}
	}()
	NewBuffer(0)
}

func TestReadNDJSONRoundTrip(t *testing.T) {
	b := NewBuffer(10)
	b.Record(Record{T: 1, Node: 2, Layer: "routing", Event: "a", Detail: "x"})
	b.Record(Record{T: 5, Node: 3, Layer: "routing", Event: "b"})
	var buf bytes.Buffer
	if err := b.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Event != "a" || got[1].Node != 3 {
		t.Fatalf("round trip %+v", got)
	}
}

func TestReadNDJSONErrors(t *testing.T) {
	if _, err := ReadNDJSON(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	got, err := ReadNDJSON(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("blank lines mishandled: %v %v", got, err)
	}
}

func TestReadNDJSONLongLines(t *testing.T) {
	// A legitimately long record (2 MiB of detail) must parse.
	big := Record{T: 1, Node: 2, Layer: "routing", Event: "a",
		Detail: strings.Repeat("x", 2<<20)}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatalf("2 MiB record rejected: %v", err)
	}
	if len(got) != 1 || len(got[0].Detail) != 2<<20 {
		t.Fatalf("2 MiB record mangled: %d records", len(got))
	}

	// Past the cap, the error must say which line and what to do about
	// it, not just bufio.Scanner's bare "token too long".
	in := "{}\n" + strings.Repeat("y", maxTraceLine+1) + "\n"
	_, err = ReadNDJSON(strings.NewReader(in))
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	for _, want := range []string{"line 2", "4 MiB", "NDJSON"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	records := []Record{
		{T: 10, Node: 1, Event: "rreq-forward"},
		{T: 5, Node: 2, Event: "rreq-forward"},
		{T: 20, Node: 1, Event: "data-deliver"},
	}
	s := Summarize(records)
	if s.Records != 3 || s.Start != 5 || s.End != 20 {
		t.Fatalf("summary %+v", s)
	}
	if s.ByEvent["rreq-forward"] != 2 || s.ByNode[1] != 2 {
		t.Fatalf("counts %+v", s)
	}
	if s.BusiestNode != 1 {
		t.Fatalf("busiest %v", s.BusiestNode)
	}
	out := s.Format()
	if !strings.Contains(out, "rreq-forward") || !strings.Contains(out, "3 records") {
		t.Fatalf("format output %q", out)
	}
	if empty := Summarize(nil).Format(); !strings.Contains(empty, "0 records") {
		t.Fatalf("empty format %q", empty)
	}
}
