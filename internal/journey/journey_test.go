package journey

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

func dataPkt(uid uint64, flow, seq int, src, dst pkt.NodeID) *pkt.Packet {
	return &pkt.Packet{Kind: pkt.Data, UID: uid, FlowID: flow, Seq: seq, Src: src, Dst: dst}
}

// driveTwoHop walks one packet through a two-hop delivery with one retry
// on the first hop, returning the closed journey.
func driveTwoHop(t *testing.T, r *Recorder) *Journey {
	t.Helper()
	p := dataPkt(7, 3, 0, 0, 2)
	r.OnOriginate(100, 0, p)
	r.OnMacEnqueue(150, 0, p, 1) // routing 50
	r.OnMacService(180, 0, p)    // queue 30
	r.OnMacTxStart(200, 0, p)    // access 20, attempt 1
	r.OnMacTxStart(300, 0, p)    // retry 100, attempt 2
	r.OnArrive(350, 1, p)        // air 50; new hop at node 1
	r.OnMacEnqueue(360, 1, p, 2) // routing 10
	r.OnMacService(360, 1, p)    // queue 0
	r.OnMacTxStart(400, 1, p)    // access 40
	r.OnDeliver(440, 2, p)       // air 40
	js := r.Journeys()
	if len(js) != 1 {
		t.Fatalf("closed %d journeys, want 1", len(js))
	}
	return js[0]
}

func TestRecorderStateMachine(t *testing.T) {
	r := NewRecorder(1, false)
	r.Begin(0, rng.New(1))
	j := driveTwoHop(t, r)

	if j.Outcome != OutcomeDelivered {
		t.Fatalf("outcome %q, want delivered", j.Outcome)
	}
	if j.UID != 7 || j.Flow != 3 || j.Src != 0 || j.Dst != 2 {
		t.Fatalf("identity = %+v", j)
	}
	if j.CreatedNs != 100 || j.DoneNs != 440 {
		t.Fatalf("created/done = %d/%d, want 100/440", j.CreatedNs, j.DoneNs)
	}
	want := []Hop{
		{Node: 0, Next: 1, EnterNs: 100, RoutingNs: 50, QueueNs: 30, AccessNs: 20, RetryNs: 100, AirNs: 50, Attempts: 2},
		{Node: 1, Next: 2, EnterNs: 350, RoutingNs: 10, QueueNs: 0, AccessNs: 40, RetryNs: 0, AirNs: 40, Attempts: 1},
	}
	if !reflect.DeepEqual(j.Hops, want) {
		t.Fatalf("hops = %+v\nwant   %+v", j.Hops, want)
	}
	// Exact telescoping: per-hop spans sum to end-to-end delay.
	var sum int64
	for i := range j.Hops {
		sum += j.Hops[i].TotalNs()
	}
	if sum != j.DoneNs-j.CreatedNs {
		t.Fatalf("span sum %d != delay %d", sum, j.DoneNs-j.CreatedNs)
	}
}

func TestRecorderIgnoresForeignHooks(t *testing.T) {
	r := NewRecorder(1, false)
	r.Begin(0, rng.New(1))
	p := dataPkt(1, 0, 0, 0, 3)
	r.OnOriginate(0, 0, p)
	r.OnMacEnqueue(10, 0, p, 1)

	// Hooks from the wrong node, wrong phase or wrong next hop are no-ops.
	r.OnMacService(20, 5, p)    // wrong node
	r.OnArrive(30, 2, p)        // not the intended next hop
	r.OnDeliver(30, 2, p)       // not the intended next hop
	r.OnMacEnqueue(30, 0, p, 2) // wrong phase (already queued)
	r.OnDrop(40, 5, p, DropTTL) // neither holder nor next

	r.OnMacService(50, 0, p)
	r.OnMacTxStart(60, 0, p)
	r.OnArrive(70, 1, p)
	r.EndRun(100)

	js := r.Journeys()
	if len(js) != 1 || js[0].Outcome != OutcomeUnresolved {
		t.Fatalf("journeys = %+v", js)
	}
	want := []Hop{
		{Node: 0, Next: 1, EnterNs: 0, RoutingNs: 10, QueueNs: 40, AccessNs: 10, AirNs: 10, Attempts: 1},
		{Node: 1, Next: -1, EnterNs: 70, RoutingNs: 30},
	}
	if !reflect.DeepEqual(js[0].Hops, want) {
		t.Fatalf("hops = %+v\nwant   %+v", js[0].Hops, want)
	}
}

func TestRecorderDropAtNextHop(t *testing.T) {
	r := NewRecorder(1, false)
	r.Begin(0, rng.New(1))
	p := dataPkt(2, 0, 0, 0, 5)
	r.OnOriginate(0, 0, p)
	r.OnMacEnqueue(0, 0, p, 1)
	r.OnMacService(0, 0, p)
	r.OnMacTxStart(10, 0, p)
	// The packet arrives at node 1 and routing drops it there (TTL): the
	// in-flight hop closes with its airtime and a trailing zero-span hop
	// marks where it died.
	r.OnDrop(25, 1, p, DropTTL)
	js := r.Journeys()
	if len(js) != 1 {
		t.Fatalf("closed %d journeys, want 1", len(js))
	}
	j := js[0]
	if j.Outcome != "drop-"+DropTTL {
		t.Fatalf("outcome %q", j.Outcome)
	}
	if len(j.Hops) != 2 || j.Hops[0].AirNs != 15 || j.Hops[1].Node != 1 || j.Hops[1].TotalNs() != 0 {
		t.Fatalf("hops = %+v", j.Hops)
	}
}

func TestRecorderWarmup(t *testing.T) {
	r := NewRecorder(1, false)
	r.Begin(1000, rng.New(1))
	p := dataPkt(1, 0, 0, 0, 2)
	r.OnOriginate(500, 0, p) // before measureFrom: not tracked
	if r.OnMacEnqueue(600, 0, p, 1); len(r.live) != 0 {
		t.Fatal("warm-up packet was tracked")
	}
	p2 := dataPkt(2, 0, 1, 0, 2)
	r.OnOriginate(1500, 0, p2)
	if len(r.live) != 1 {
		t.Fatal("post-warm-up packet not tracked")
	}
	// Control packets carry UID 0 and are never tracked.
	r.OnOriginate(1600, 0, &pkt.Packet{Kind: pkt.Data, UID: 0})
	if len(r.live) != 1 {
		t.Fatal("UID-0 packet was tracked")
	}
}

func TestSamplingDeterministicAndBeginResets(t *testing.T) {
	pick := func(r *Recorder) map[int]bool {
		got := map[int]bool{}
		for f := 0; f < 64; f++ {
			if r.sampled(f) {
				got[f] = true
			}
		}
		return got
	}
	a := NewRecorder(4, false)
	a.Begin(0, rng.New(42).Derive(8000))
	b := NewRecorder(4, false)
	b.Begin(0, rng.New(42).Derive(8000))
	first := pick(a)
	if len(first) == 0 || len(first) == 64 {
		t.Fatalf("degenerate sampling: %d of 64", len(first))
	}
	if !reflect.DeepEqual(first, pick(b)) {
		t.Fatal("same seed produced different sampled flow sets")
	}
	// Re-arming with the same stream reproduces the set; with a different
	// seed it (almost surely) differs somewhere over 64 flows.
	a.Begin(0, rng.New(42).Derive(8000))
	if !reflect.DeepEqual(first, pick(a)) {
		t.Fatal("Begin did not reset flow sampling memo deterministically")
	}
}

func TestBeginRecyclesState(t *testing.T) {
	r := NewRecorder(1, true)
	r.Begin(0, rng.New(1))
	driveTwoHop(t, r)
	r.OnRREQDecision(10, 1, 0, 1, 0, 0.5, 4, 0.9, 0.3, true)
	r.OnReplyCandidate(20, 2, 0, 1, 1, 1.5, 2)
	r.OnReplyClose(30, 2, 0, 1, 1, 1.5, 2)
	r.OnRouteEvent(RouteEvent{TNs: 40, Node: 0, Kind: EventDiscoveryOK, Peer: 2, Via: 1})
	// Leave one journey live and one wait window open across Begin.
	p := dataPkt(99, 0, 5, 0, 2)
	r.OnOriginate(50, 0, p)
	r.OnReplyCandidate(60, 3, 1, 7, 2, 2.0, 3)

	r.Begin(0, rng.New(2))
	if len(r.Journeys()) != 0 || len(r.RREQDecisions()) != 0 || len(r.ReplySelections()) != 0 ||
		len(r.RouteEvents()) != 0 {
		t.Fatal("Begin did not clear recorded state")
	}
	if len(r.live) != 0 || len(r.waits) != 0 {
		t.Fatal("Begin did not clear live state")
	}
	if r.journeyFree.Len() == 0 || r.trackFree.Len() == 0 || r.waitFree.Len() == 0 {
		t.Fatal("Begin did not recycle into the free lists")
	}

	// A warm recorder behaves identically to a fresh one.
	warm := driveTwoHop(t, r)
	fresh := NewRecorder(1, true)
	fresh.Begin(0, rng.New(2))
	cold := driveTwoHop(t, fresh)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm journey %+v != cold %+v", warm, cold)
	}
}

func TestEndRunClosesByUID(t *testing.T) {
	r := NewRecorder(1, false)
	r.Begin(0, rng.New(1))
	for _, uid := range []uint64{5, 2, 9, 1} {
		r.OnOriginate(des.Time(uid), 0, dataPkt(uid, 0, 0, 0, 2))
	}
	r.EndRun(100)
	js := r.Journeys()
	if len(js) != 4 {
		t.Fatalf("closed %d, want 4", len(js))
	}
	for i, want := range []uint64{1, 2, 5, 9} {
		if js[i].UID != want {
			t.Fatalf("closure order %v", []uint64{js[0].UID, js[1].UID, js[2].UID, js[3].UID})
		}
		if js[i].Outcome != OutcomeUnresolved {
			t.Fatalf("outcome %q", js[i].Outcome)
		}
		// The open routing phase folds so spans still telescope.
		if js[i].Hops[0].RoutingNs != js[i].DoneNs-js[i].CreatedNs {
			t.Fatalf("unresolved journey spans do not telescope: %+v", js[i])
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	r := NewRecorder(1, true)
	r.Begin(0, rng.New(1))
	driveTwoHop(t, r)
	r.OnRREQDecision(10, 1, 0, 1, 0, 0.5, 4, 0.9, 0.3, true)
	r.OnReplyCandidate(20, 2, 0, 1, 1, 1.5, 2)
	r.OnReplyClose(30, 2, 0, 1, 1, 1.5, 2)

	var jbuf bytes.Buffer
	if err := r.WriteJourneysNDJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNDJSON[Journey](bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(back[0], *r.Journeys()[0]) {
		t.Fatalf("round trip: %+v != %+v", back, r.Journeys())
	}

	var dbuf bytes.Buffer
	if err := r.WriteDecisionsNDJSON(&dbuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(dbuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("decision lines = %d, want 2", len(lines))
	}
	var first struct {
		Type string        `json:"type"`
		RREQ *RREQDecision `json:"rreq"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "rreq" || first.RREQ == nil || first.RREQ.P != 0.9 || !first.RREQ.Forwarded {
		t.Fatalf("first decision line = %s", lines[0])
	}
	var second struct {
		Type string          `json:"type"`
		Sel  *ReplySelection `json:"select"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Type != "select" || second.Sel == nil || len(second.Sel.Candidates) != 1 ||
		second.Sel.WinnerFrom != 1 {
		t.Fatalf("second decision line = %s", lines[1])
	}
}

func TestRouteEventNDJSONRoundTrip(t *testing.T) {
	r := NewRecorder(1, true)
	r.Begin(0, rng.New(1))
	r.OnRREQDecision(10, 1, 0, 1, 0, 0.5, 4, 0.9, 0.3, true)
	events := []RouteEvent{
		{TNs: 5, Node: 0, Kind: EventRREQOriginate, Peer: 2, ID: 1, Attempt: 1},
		{TNs: 30, Node: 2, Kind: EventRREPSend, Peer: 0, Via: 1, Cost: 1.5},
		{TNs: 40, Node: 0, Kind: EventDiscoveryOK, Peer: 2, Via: 0, Cost: 1.5, Buffered: 3},
		{TNs: 50, Node: 1, Kind: EventLinkFail, Peer: 2, Routes: 2, Frame: "DATA"},
	}
	for _, ev := range events {
		r.OnRouteEvent(ev)
	}

	// Route events go to their own stream, not the decisions one.
	var dbuf bytes.Buffer
	if err := r.WriteDecisionsNDJSON(&dbuf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(dbuf.String()), "\n"); len(lines) != 1 {
		t.Fatalf("decision lines = %d, want 1: %s", len(lines), dbuf.String())
	}

	// They read back field for field (a node-0 Via included).
	var ebuf bytes.Buffer
	if err := r.WriteRouteEventsNDJSON(&ebuf); err != nil {
		t.Fatal(err)
	}
	evBack, err := ReadNDJSON[RouteEvent](&ebuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evBack, events) {
		t.Fatalf("route events round trip: %+v != %+v", evBack, events)
	}
	// Route events ride the decisions switch.
	off := NewRecorder(1, false)
	off.Begin(0, rng.New(1))
	off.OnRouteEvent(events[0])
	if len(off.RouteEvents()) != 0 {
		t.Fatal("a recorder without decisions kept a route event")
	}
}

func TestReadJourneysErrors(t *testing.T) {
	if _, err := ReadNDJSON[Journey](strings.NewReader("{not json}\n")); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Fatalf("malformed line error = %v", err)
	}
}

func TestReadNDJSONRoundTrip(t *testing.T) {
	r := NewRecorder(1, true)
	r.Begin(0, rng.New(1))
	r.OnRouteEvent(RouteEvent{TNs: 1, Node: 2, Kind: EventRREQOriginate, Peer: 4, ID: 9, Attempt: 1})
	r.OnRouteEvent(RouteEvent{TNs: 5, Node: 3, Kind: EventDiscoveryFail, Peer: 4, Buffered: 2})
	var buf bytes.Buffer
	if err := r.WriteRouteEventsNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON[RouteEvent](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != EventRREQOriginate || got[1].Node != 3 || got[1].Buffered != 2 {
		t.Fatalf("round trip %+v", got)
	}
}

func TestReadNDJSONErrors(t *testing.T) {
	_, err := ReadNDJSON[RouteEvent](strings.NewReader("{\"kind\":\"link-fail\"}\n{broken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error = %v", err)
	}
	// Blank and whitespace-only lines carry no record, wherever they sit.
	got, err := ReadNDJSON[RouteEvent](strings.NewReader("\n \t\n{\"kind\":\"rrep-send\",\"node\":4}\n  \n\n"))
	if err != nil || len(got) != 1 || got[0].Node != 4 {
		t.Fatalf("blank lines mishandled: %v %v", got, err)
	}
}

func TestReadNDJSONLongLines(t *testing.T) {
	// A legitimately long record (a journey of 20 000 hops, over 2 MiB
	// on one line) must parse.
	long := Journey{UID: 1, Outcome: OutcomeUnresolved, Hops: make([]Hop, 20000)}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(long); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2<<20 {
		t.Fatalf("test record is only %d bytes", buf.Len())
	}
	got, err := ReadNDJSON[Journey](&buf)
	if err != nil {
		t.Fatalf("2 MiB record rejected: %v", err)
	}
	if len(got) != 1 || len(got[0].Hops) != len(long.Hops) {
		t.Fatalf("2 MiB record mangled: %d records", len(got))
	}

	// Past the cap, the error must say which line and what to do about
	// it, not just bufio.Scanner's bare "token too long".
	in := "{}\n" + strings.Repeat("y", maxLine+1) + "\n"
	_, err = ReadNDJSON[RouteEvent](strings.NewReader(in))
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

func TestAggregateAndReport(t *testing.T) {
	r := NewRecorder(1, true)
	r.Begin(0, rng.New(1))
	driveTwoHop(t, r)
	r.OnOriginate(0, 0, dataPkt(50, 3, 9, 0, 2))
	r.OnDrop(20, 0, dataPkt(50, 3, 9, 0, 2), DropBufferFull)
	r.OnRREQDecision(10, 1, 0, 1, 0, 0.5, 4, 0.8, 0.9, false)
	r.OnRREQDecision(11, 2, 0, 1, 0, 0.3, 4, 1.0, -1, true)
	r.OnReplyCandidate(20, 2, 0, 1, 4, 2.5, 2)
	r.OnReplyCandidate(21, 2, 0, 1, 5, 1.5, 3)
	r.OnReplyClose(30, 2, 0, 1, 5, 1.5, 3)

	a := NewAgg(r.EveryN())
	r.Aggregate(a)
	if a.Sampled != 2 || a.Delivered != 1 || a.Drops["drop-"+DropBufferFull] != 1 {
		t.Fatalf("agg = %+v", a)
	}
	if a.HopsSum != 2 || a.AttemptsSum != 3 {
		t.Fatalf("hops/attempts = %d/%d", a.HopsSum, a.AttemptsSum)
	}
	if a.RREQDecisions != 2 || a.RREQForwarded != 1 || a.Selections != 1 ||
		a.CandidatesSum != 2 || a.WinnerNotFirst != 1 {
		t.Fatalf("decision agg = %+v", a)
	}

	// Merge into a second aggregate doubles the counts.
	b := NewAgg(r.EveryN())
	r.Aggregate(b)
	b.Merge(a)
	if b.Sampled != 4 || b.Delivered != 2 || b.Total.Count() != 2 {
		t.Fatalf("merged agg = %+v", b)
	}

	rep := a.Report()
	if rep.EveryN != 1 || rep.Sampled != 2 || rep.Delivered != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// 340 ns end-to-end: mean_ms tracks the hist's exact sum (up to float
	// rounding of the ns→ms conversion).
	if got, want := rep.Delay.MeanMs, 340e-6; got < want-1e-15 || got > want+1e-15 {
		t.Fatalf("delay mean %g, want %g", got, want)
	}
	layerSum := rep.Layers["routing"].MeanMs + rep.Layers["queue"].MeanMs +
		rep.Layers["access"].MeanMs + rep.Layers["retry"].MeanMs + rep.Layers["air"].MeanMs
	if diff := layerSum - rep.Delay.MeanMs; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("layer means %g do not sum to total %g", layerSum, rep.Delay.MeanMs)
	}
	if rep.Decisions == nil || rep.Decisions.Count != 2 || rep.Decisions.MeanP != 0.9 {
		t.Fatalf("decision stats = %+v", rep.Decisions)
	}
	if rep.Selections == nil || rep.Selections.MeanCandidates != 2 ||
		rep.Selections.WinnerNotFirst != 1 {
		t.Fatalf("selection stats = %+v", rep.Selections)
	}
	if rep.MeanHops != 2 || rep.MeanAttemptsPerHop != 1.5 {
		t.Fatalf("hops stats = %+v", rep)
	}
}
