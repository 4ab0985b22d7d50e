package main

import (
	"strings"
	"testing"

	"clnlr/internal/journey"
)

func TestSummarize(t *testing.T) {
	events := []journey.RouteEvent{
		{TNs: 10, Node: 1, Kind: journey.EventRREQOriginate},
		{TNs: 5, Node: 2, Kind: journey.EventRREQOriginate},
		{TNs: 20, Node: 1, Kind: journey.EventDiscoveryOK},
	}
	s := summarize(events)
	if s.events != 3 || s.start != 5 || s.end != 20 {
		t.Fatalf("summary %+v", s)
	}
	if s.byKind[journey.EventRREQOriginate] != 2 || s.byNode[1] != 2 {
		t.Fatalf("counts %+v", s)
	}
	if s.busiest != 1 {
		t.Fatalf("busiest %v", s.busiest)
	}
	out := s.format()
	for _, want := range []string{"3 route events", "2 nodes, busiest n1 (2 events)", "rreq-originate", "discovery-ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format output %q missing %q", out, want)
		}
	}
	if empty := summarize(nil).format(); !strings.Contains(empty, "0 route events") {
		t.Fatalf("empty format %q", empty)
	}
	// One line per event, with the fields its kind carries.
	line := formatEvent(journey.RouteEvent{TNs: 20, Node: 1, Kind: journey.EventDiscoveryOK, Peer: 4, Via: 2, Cost: 1.5, Buffered: 3})
	if !strings.Contains(line, "n1 discovery-ok target=n4 via=n2 cost=1.50 flushed=3") {
		t.Fatalf("event line %q", line)
	}
}
