// traceview summarises and filters the route events produced by
// `meshsim -journey N -trace <file>`, and renders per-hop delay timelines
// from packet journeys produced by `meshsim -journey N -journey-out <file>`.
//
// Examples:
//
//	traceview events.ndjson                       # summary by kind and node
//	traceview -node 12 events.ndjson              # one node's events
//	traceview -event discovery -n 20 events.ndjson # first 20 discovery outcomes
//	traceview -journey -n 5 journeys.ndjson       # 5 per-hop delay timelines
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"clnlr/internal/buildinfo"
	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/pkt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceview: ")
	var (
		node     = flag.Int("node", -1, "only events at (or journeys visiting) this node")
		event    = flag.String("event", "", "only event kinds (or journey outcomes) containing this substring")
		limit    = flag.Int("n", 0, "print at most this many matching records (0 = summary only)")
		journeys = flag.Bool("journey", false, "input is packet journeys NDJSON (meshsim -journey-out): render per-hop delay timelines")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print("traceview")
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: traceview [flags] <events.ndjson>")
	}
	if *limit < 0 {
		log.Fatalf("negative record limit %d", *limit)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	if *journeys {
		viewJourneys(f, *node, *event, *limit)
		return
	}

	events, err := journey.ReadNDJSON[journey.RouteEvent](f)
	if err != nil {
		log.Fatal(err)
	}
	var matched []journey.RouteEvent
	for _, ev := range events {
		if *node >= 0 && ev.Node != pkt.NodeID(*node) {
			continue
		}
		if *event != "" && !containsFold(ev.Kind, *event) {
			continue
		}
		matched = append(matched, ev)
	}

	fmt.Print(summarize(matched).format())
	if *limit > 0 {
		fmt.Println()
		for i, ev := range matched {
			if i >= *limit {
				fmt.Printf("... %d more\n", len(matched)-i)
				break
			}
			fmt.Println(formatEvent(ev))
		}
	}
}

// summary aggregates a route-event set by kind and by node.
type summary struct {
	events     int
	start, end des.Time
	byKind     map[string]int
	byNode     map[pkt.NodeID]int
	busiest    pkt.NodeID
}

// summarize computes the summary of events.
func summarize(events []journey.RouteEvent) summary {
	s := summary{
		events: len(events),
		byKind: make(map[string]int),
		byNode: make(map[pkt.NodeID]int),
	}
	if len(events) == 0 {
		return s
	}
	s.start, s.end = des.Time(events[0].TNs), des.Time(events[0].TNs)
	for _, ev := range events {
		s.start = min(s.start, des.Time(ev.TNs))
		s.end = max(s.end, des.Time(ev.TNs))
		s.byKind[ev.Kind]++
		s.byNode[ev.Node]++
	}
	best, bestN := pkt.NodeID(0), -1
	for id, n := range s.byNode {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	s.busiest = best
	return s
}

// format renders the summary as aligned text: the span, the node count
// and busiest node, then one line per kind, most frequent first.
func (s summary) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d route events spanning %v – %v (%.3f s)\n",
		s.events, s.start, s.end, (s.end - s.start).Seconds())
	if s.events == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%d nodes, busiest %v (%d events)\n\n", len(s.byNode), s.busiest, s.byNode[s.busiest])
	kinds := make([]string, 0, len(s.byKind))
	for k := range s.byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if s.byKind[kinds[i]] != s.byKind[kinds[j]] {
			return s.byKind[kinds[i]] > s.byKind[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	fmt.Fprintf(&b, "%-24s %8s\n", "kind", "count")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-24s %8d\n", k, s.byKind[k])
	}
	return b.String()
}

// formatEvent renders one route event as a log line: time, node, kind and
// the fields that kind carries.
func formatEvent(ev journey.RouteEvent) string {
	head := fmt.Sprintf("%v %v %s", des.Time(ev.TNs), ev.Node, ev.Kind)
	switch ev.Kind {
	case journey.EventRREQOriginate:
		return fmt.Sprintf("%s target=%v id=%d attempt=%d", head, ev.Peer, ev.ID, ev.Attempt)
	case journey.EventDiscoveryOK:
		return fmt.Sprintf("%s target=%v via=%v cost=%.2f flushed=%d", head, ev.Peer, ev.Via, ev.Cost, ev.Buffered)
	case journey.EventDiscoveryFail:
		return fmt.Sprintf("%s target=%v dropped=%d", head, ev.Peer, ev.Buffered)
	case journey.EventRREPSend:
		return fmt.Sprintf("%s origin=%v via=%v cost=%.2f", head, ev.Peer, ev.Via, ev.Cost)
	case journey.EventLinkFail:
		return fmt.Sprintf("%s neighbour=%v routes-lost=%d frame=%s", head, ev.Peer, ev.Routes, ev.Frame)
	}
	return head
}

// viewJourneys is the -journey mode: summarise the journey set and render
// up to limit per-hop delay-decomposition timelines.
func viewJourneys(f *os.File, node int, outcome string, limit int) {
	js, err := journey.ReadNDJSON[journey.Journey](f)
	if err != nil {
		log.Fatal(err)
	}
	var matched []journey.Journey
	for _, j := range js {
		if node >= 0 && !visits(j, pkt.NodeID(node)) {
			continue
		}
		if outcome != "" && !containsFold(j.Outcome, outcome) {
			continue
		}
		matched = append(matched, j)
	}

	byOutcome := map[string]int{}
	var delivered int
	var delayNs, hops int64
	for _, j := range matched {
		byOutcome[j.Outcome]++
		if j.Outcome == journey.OutcomeDelivered {
			delivered++
			delayNs += j.DoneNs - j.CreatedNs
			hops += int64(len(j.Hops))
		}
	}
	fmt.Printf("%d of %d journeys matched\n", len(matched), len(js))
	for _, o := range sortedKeys(byOutcome) {
		fmt.Printf("  %-18s %d\n", o, byOutcome[o])
	}
	if delivered > 0 {
		fmt.Printf("  delivered mean: %.3f ms over %.2f hops\n",
			float64(delayNs)/float64(delivered)/1e6, float64(hops)/float64(delivered))
	}

	if limit == 0 {
		return
	}
	for i, j := range matched {
		if i >= limit {
			fmt.Printf("... %d more\n", len(matched)-i)
			break
		}
		fmt.Println()
		printTimeline(j)
	}
}

// printTimeline renders one journey as a per-hop decomposition, offsets in
// milliseconds relative to packet creation.
func printTimeline(j journey.Journey) {
	fmt.Printf("uid=%d flow=%d seq=%d %v→%v %s  %.3f ms over %d hops\n",
		j.UID, j.Flow, j.Seq, j.Src, j.Dst, j.Outcome,
		float64(j.DoneNs-j.CreatedNs)/1e6, len(j.Hops))
	for i, h := range j.Hops {
		next := "?"
		if h.Next >= 0 {
			next = fmt.Sprint(h.Next)
		}
		fmt.Printf("  hop %-2d %3v→%-3s t+%8.3fms  route %7.3f | queue %7.3f | access %7.3f | retry %7.3f | air %7.3f  (%d tx)\n",
			i+1, h.Node, next, float64(h.EnterNs-j.CreatedNs)/1e6,
			float64(h.RoutingNs)/1e6, float64(h.QueueNs)/1e6, float64(h.AccessNs)/1e6,
			float64(h.RetryNs)/1e6, float64(h.AirNs)/1e6, h.Attempts)
	}
}

// visits reports whether the journey's path touches node n.
func visits(j journey.Journey, n pkt.NodeID) bool {
	if j.Src == n || j.Dst == n {
		return true
	}
	for _, h := range j.Hops {
		if h.Node == n || h.Next == n {
			return true
		}
	}
	return false
}

// sortedKeys returns the map's keys in lexical order (deterministic
// summary output).
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// containsFold reports a case-insensitive substring match without pulling
// in strings.ToLower allocations per record.
func containsFold(s, sub string) bool {
	n := len(sub)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		j := 0
		for j < n {
			a, b := s[i+j], sub[j]
			if a|0x20 != b|0x20 {
				break
			}
			j++
		}
		if j == n {
			return true
		}
	}
	return false
}
