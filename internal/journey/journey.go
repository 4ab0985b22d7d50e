// Package journey implements the per-packet cross-layer lifecycle tracer:
// it follows sampled data packets from the moment they enter the network
// layer at their origin, through every routing queue, MAC contention,
// retry and airtime span, to per-hop delivery — answering "where did the
// delay go" for any packet the end-to-end numbers flag as slow.
//
// On top of packet journeys it records *decision provenance* for the
// load-adaptive machinery: every CLNLR RREQ forwarding decision (the
// neighbourhood load NL, the computed probability p, the uniform draw
// that resolved it, and the outcome) and every RREP-WAIT selection (the
// full candidate set with path costs, hop counts and arrival times, plus
// the winner) — answering "why was this route chosen". Route events
// (floods originated, discoveries won or lost, replies sent, links
// broken) record the discovery and maintenance moments around them.
//
// Design constraints, in order:
//
//   - Zero perturbation. Hooks never schedule events and never draw from
//     any random stream; the one stream interaction — the CLNLR forwarding
//     draw — is captured via rng.Source.BoolDraw, which consumes exactly
//     what Bool would. A journey-enabled run therefore produces
//     bit-identical sim.Results to a disabled one (pinned by the golden
//     suite).
//   - Zero disabled cost. All instrumentation sits behind nil checks on
//     the recorder pointer: a disabled hook is one branch, no call.
//   - Exact decomposition. Spans are kept in integer nanoseconds and
//     every phase transition closes one interval and opens the next, so
//     for a delivered packet the per-layer components telescope:
//     Σ(routing+queue+access+retry+air) == done − created, exactly.
//   - Deterministic sampling. Whether a flow is sampled is a pure
//     function of the run seed and the flow ID (a derived stream per
//     flow), independent of event order, so warm/cold engines and
//     resumed sweeps agree bit-for-bit.
package journey

import (
	"sort"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/recycle"
	"clnlr/internal/rng"
)

// Journey phases. A tracked packet is always in exactly one.
const (
	phRouting uint8 = iota // in the routing layer (incl. discovery buffering)
	phQueued               // in the MAC interface queue
	phService              // promoted to the contention slot, pre-first-tx
	phAir                  // a transmission attempt is (or was) on the air
)

// Outcome values. Drop outcomes are "drop-" + the cause, mirroring the
// routing/MAC drop counters.
const (
	OutcomeDelivered  = "delivered"
	OutcomeUnresolved = "unresolved" // still in flight when the run ended

	DropCrashed      = "crashed"
	DropBufferFull   = "buffer-full"
	DropNoRoute      = "no-route"
	DropTTL          = "ttl"
	DropLinkFail     = "link-fail"
	DropMacQueueFull = "mac-queue-full"
	DropDown         = "down"
)

// Hop is one forwarding hop of a journey: the time the packet entered the
// routing layer at Node, and the decomposed spans until it arrived at
// Next. All spans are integer nanoseconds so they sum exactly.
type Hop struct {
	Node pkt.NodeID `json:"node"`
	Next pkt.NodeID `json:"next"` // intended next hop (-1 before first enqueue)
	// EnterNs is when the packet entered the routing layer at Node.
	EnterNs int64 `json:"enter_ns"`
	// RoutingNs: routing-layer residency (incl. route-discovery waits).
	RoutingNs int64 `json:"routing_ns"`
	// QueueNs: MAC interface-queue residency before promotion.
	QueueNs int64 `json:"queue_ns"`
	// AccessNs: channel access for the first transmission attempt (DIFS,
	// backoff, NAV waits, and any RTS/CTS handshake).
	AccessNs int64 `json:"access_ns"`
	// RetryNs: everything between the start of a failed attempt and the
	// start of the next (timeout + re-contention).
	RetryNs int64 `json:"retry_ns"`
	// AirNs: airtime of the attempt that arrived.
	AirNs int64 `json:"air_ns"`
	// Attempts counts data transmission starts (1 = no retries).
	Attempts int `json:"attempts"`
}

// TotalNs returns the hop's span sum.
func (h *Hop) TotalNs() int64 {
	return h.RoutingNs + h.QueueNs + h.AccessNs + h.RetryNs + h.AirNs
}

// Journey is the recorded lifecycle of one sampled data packet.
type Journey struct {
	UID       uint64     `json:"uid"`
	Flow      int        `json:"flow"`
	Seq       int        `json:"seq"`
	Src       pkt.NodeID `json:"src"`
	Dst       pkt.NodeID `json:"dst"`
	CreatedNs int64      `json:"created_ns"`
	DoneNs    int64      `json:"done_ns"`
	Outcome   string     `json:"outcome"`
	Hops      []Hop      `json:"hops"`
}

// RREQDecision is the provenance of one load-adaptive RREQ forwarding
// decision: everything needed to recompute p and check the outcome.
type RREQDecision struct {
	TNs     int64      `json:"t_ns"`
	Node    pkt.NodeID `json:"node"`
	Origin  pkt.NodeID `json:"origin"`
	ID      uint32     `json:"id"`
	Attempt int        `json:"attempt"`
	// NL is the smoothed neighbourhood load read from the MAC/HELLO
	// cross-layer path; Neighbors the fresh-neighbour count — the two
	// inputs of the probability formula.
	NL        float64 `json:"nl"`
	Neighbors int     `json:"neighbors"`
	// P is the final forwarding probability (after retry escalation);
	// Draw the uniform that resolved it, -1 when P was degenerate (0 or
	// 1) and no draw was consumed.
	P         float64 `json:"p"`
	Draw      float64 `json:"draw"`
	Forwarded bool    `json:"forwarded"`
}

// ReplyCandidate is one RREQ copy collected during an RREP-WAIT window.
type ReplyCandidate struct {
	From pkt.NodeID `json:"from"`
	Cost float64    `json:"cost"`
	Hops int        `json:"hops"`
	TNs  int64      `json:"t_ns"`
}

// ReplySelection is the outcome of one RREP-WAIT window at a destination:
// the full candidate set and the copy it replied to.
type ReplySelection struct {
	TNs        int64            `json:"t_ns"`
	Node       pkt.NodeID       `json:"node"`
	Origin     pkt.NodeID       `json:"origin"`
	ID         uint32           `json:"id"`
	Candidates []ReplyCandidate `json:"candidates"`
	WinnerFrom pkt.NodeID       `json:"winner_from"`
	WinnerCost float64          `json:"winner_cost"`
	WinnerHops int              `json:"winner_hops"`
}

// Route-event kinds: the discovery and maintenance moments of the shared
// routing core, named as traceview filters them.
const (
	EventRREQOriginate = "rreq-originate" // a flood (or re-flood) leaves its origin
	EventDiscoveryOK   = "discovery-ok"   // the origin's discovery installed a route
	EventDiscoveryFail = "discovery-fail" // the origin ran out of floods
	EventRREPSend      = "rrep-send"      // a destination replies to an RREQ
	EventLinkFail      = "link-fail"      // a unicast to a neighbour failed at the MAC
)

// RouteEvent is the provenance of one route-discovery or maintenance
// event at Node. Beyond TNs, Node and Kind, the fields a kind sets are:
//
//   - rreq-originate: Peer (the target), ID (the flood), Attempt (1 for
//     the first flood);
//   - discovery-ok: Peer (the target), Via (the next hop), Cost, Buffered
//     (packets flushed onto the route);
//   - discovery-fail: Peer (the target), Buffered (packets dropped);
//   - rrep-send: Peer (the RREQ's origin), Via (the previous hop the reply
//     goes to), Cost (of the copy replied to);
//   - link-fail: Peer (the lost neighbour), Routes (routes invalidated),
//     Frame (the kind of the frame that failed).
type RouteEvent struct {
	TNs      int64      `json:"t_ns"`
	Node     pkt.NodeID `json:"node"`
	Kind     string     `json:"kind"`
	Peer     pkt.NodeID `json:"peer"`
	Via      pkt.NodeID `json:"via,omitempty"`
	ID       uint32     `json:"id,omitempty"`
	Attempt  int        `json:"attempt,omitempty"`
	Cost     float64    `json:"cost,omitempty"`
	Buffered int        `json:"buffered,omitempty"`
	Routes   int        `json:"routes,omitempty"`
	Frame    string     `json:"frame,omitempty"`
}

// track is the live tracking state of one in-flight journey.
type track struct {
	j       *Journey
	phase   uint8
	since   des.Time // start of the current phase interval
	txStart des.Time // start of the current transmission attempt (phAir)
}

// waitKey identifies one open RREP-WAIT window.
type waitKey struct {
	node   pkt.NodeID
	origin pkt.NodeID
	id     uint32
}

// waitProv accumulates a window's candidate set until it closes.
type waitProv struct {
	cands []ReplyCandidate
}

// Recorder collects journeys and decision provenance for one run (or a
// warm sequence of runs via Begin). It is installed per node as
// routing.Env.Journey / Mac.SetJourney; all hooks run on the simulation
// goroutine, so no locking. A nil *Recorder is never dereferenced — every
// call site nil-checks first, keeping the disabled path free.
type Recorder struct {
	everyN    int
	decisions bool

	measureFrom des.Time
	sampler     *rng.Source
	flowSampled map[int]bool

	live   map[uint64]*track
	closed []*Journey

	rreq       []RREQDecision
	selections []ReplySelection
	routes     []RouteEvent
	waits      map[waitKey]*waitProv
	// cands backs every selection's Candidates, so a warm recorder's
	// OnReplyClose allocates nothing; Begin empties it with selections.
	cands []ReplyCandidate

	trackFree   recycle.List[*track]
	journeyFree recycle.List[*Journey]
	waitFree    recycle.List[*waitProv]
}

// NewRecorder creates a recorder sampling one in everyN flows (everyN <= 1
// samples every flow). decisions enables RREQ/RREP-WAIT provenance and
// route-event recording alongside packet journeys.
func NewRecorder(everyN int, decisions bool) *Recorder {
	if everyN < 1 {
		everyN = 1
	}
	return &Recorder{
		everyN:      everyN,
		decisions:   decisions,
		flowSampled: make(map[int]bool),
		live:        make(map[uint64]*track),
		waits:       make(map[waitKey]*waitProv),
	}
}

// EveryN returns the sampling divisor.
func (r *Recorder) EveryN() int { return r.everyN }

// Decisions reports whether decision provenance and route events are
// being recorded.
func (r *Recorder) Decisions() bool { return r.decisions }

// Begin (re)arms the recorder for a fresh run: measureFrom is the warm-up
// boundary (packets created earlier are not tracked, matching the delay
// measurement discipline) and sampler the dedicated run-seeded stream the
// per-flow sampling decision derives from. All recorded state from a
// previous run is recycled, so a warm Recorder behaves identically to a
// fresh one.
func (r *Recorder) Begin(measureFrom des.Time, sampler *rng.Source) {
	r.measureFrom = measureFrom
	r.sampler = sampler
	clear(r.flowSampled)
	for uid, tr := range r.live {
		r.recycleJourney(tr.j)
		r.recycleTrack(tr)
		delete(r.live, uid)
	}
	for i, j := range r.closed {
		r.recycleJourney(j)
		r.closed[i] = nil
	}
	r.closed = r.closed[:0]
	r.rreq = r.rreq[:0]
	r.selections = r.selections[:0]
	r.routes = r.routes[:0]
	r.cands = r.cands[:0]
	for k, w := range r.waits {
		r.recycleWait(w)
		delete(r.waits, k)
	}
}

func (r *Recorder) recycleTrack(tr *track) {
	*tr = track{}
	r.trackFree.Put(tr, recycle.Unbounded)
}

func (r *Recorder) newTrack() *track {
	if tr, ok := r.trackFree.Get(); ok {
		return tr
	}
	return &track{}
}

func (r *Recorder) recycleJourney(j *Journey) {
	hops := j.Hops[:0]
	*j = Journey{Hops: hops}
	r.journeyFree.Put(j, recycle.Unbounded)
}

func (r *Recorder) newJourney() *Journey {
	if j, ok := r.journeyFree.Get(); ok {
		return j
	}
	return &Journey{}
}

func (r *Recorder) recycleWait(w *waitProv) {
	w.cands = w.cands[:0]
	r.waitFree.Put(w, recycle.Unbounded)
}

func (r *Recorder) newWait() *waitProv {
	if w, ok := r.waitFree.Get(); ok {
		return w
	}
	return &waitProv{}
}

// sampled reports (and memoises) whether flow's packets are tracked. The
// decision is a pure function of the sampler's seed and the flow ID —
// event order cannot influence it.
func (r *Recorder) sampled(flow int) bool {
	if r.everyN <= 1 {
		return true
	}
	s, ok := r.flowSampled[flow]
	if !ok {
		s = r.sampler.Derive(uint64(flow)).Float64()*float64(r.everyN) < 1
		r.flowSampled[flow] = s
	}
	return s
}

// cur returns the journey's open (last) hop.
func (tr *track) cur() *Hop { return &tr.j.Hops[len(tr.j.Hops)-1] }

// --- packet lifecycle hooks (routing layer) ---

// OnOriginate opens a journey when a data packet enters the network layer
// at its origin. Unsampled flows, warm-up packets and control packets
// (UID 0) are ignored.
func (r *Recorder) OnOriginate(t des.Time, node pkt.NodeID, p *pkt.Packet) {
	if p.Kind != pkt.Data || p.UID == 0 || t < r.measureFrom || !r.sampled(p.FlowID) {
		return
	}
	if _, dup := r.live[p.UID]; dup {
		return
	}
	j := r.newJourney()
	j.UID, j.Flow, j.Seq, j.Src, j.Dst = p.UID, p.FlowID, p.Seq, p.Src, p.Dst
	j.CreatedNs = int64(t)
	j.Hops = append(j.Hops, Hop{Node: node, Next: -1, EnterNs: int64(t)})
	tr := r.newTrack()
	tr.j, tr.phase, tr.since = j, phRouting, t
	r.live[p.UID] = tr
}

// OnMacEnqueue records the routing→MAC handoff: the packet joined node's
// interface queue bound for next.
func (r *Recorder) OnMacEnqueue(t des.Time, node pkt.NodeID, p *pkt.Packet, next pkt.NodeID) {
	tr := r.live[p.UID]
	if tr == nil || tr.phase != phRouting || tr.cur().Node != node {
		return
	}
	h := tr.cur()
	h.RoutingNs += int64(t - tr.since)
	h.Next = next
	tr.phase, tr.since = phQueued, t
}

// OnMacService records the packet's promotion to the MAC contention slot.
func (r *Recorder) OnMacService(t des.Time, node pkt.NodeID, p *pkt.Packet) {
	tr := r.live[p.UID]
	if tr == nil || tr.phase != phQueued || tr.cur().Node != node {
		return
	}
	tr.cur().QueueNs += int64(t - tr.since)
	tr.phase, tr.since = phService, t
}

// OnMacTxStart records the start of a data transmission attempt. The
// first attempt closes the access span; later ones fold the gap since the
// previous attempt into the retry span.
func (r *Recorder) OnMacTxStart(t des.Time, node pkt.NodeID, p *pkt.Packet) {
	tr := r.live[p.UID]
	if tr == nil || tr.cur().Node != node {
		return
	}
	h := tr.cur()
	switch tr.phase {
	case phService:
		h.AccessNs += int64(t - tr.since)
	case phAir:
		h.RetryNs += int64(t - tr.txStart)
	default:
		return
	}
	tr.phase, tr.txStart = phAir, t
	h.Attempts++
}

// OnArrive records the packet's arrival at the next hop's routing layer
// (forwarding continues there): the open hop closes and a new one opens
// at node. Fork-protected: only an arrival at the hop's intended next hop
// while an attempt is in flight advances the journey, so retransmissions
// of already-arrived frames and source-rebuffered copies are ignored.
func (r *Recorder) OnArrive(t des.Time, node pkt.NodeID, p *pkt.Packet) {
	tr := r.live[p.UID]
	if tr == nil || tr.phase != phAir || tr.cur().Next != node {
		return
	}
	tr.cur().AirNs += int64(t - tr.txStart)
	tr.j.Hops = append(tr.j.Hops, Hop{Node: node, Next: -1, EnterNs: int64(t)})
	tr.phase, tr.since = phRouting, t
}

// OnDeliver closes a journey at its destination.
func (r *Recorder) OnDeliver(t des.Time, node pkt.NodeID, p *pkt.Packet) {
	tr := r.live[p.UID]
	if tr == nil || tr.phase != phAir || tr.cur().Next != node {
		return
	}
	tr.cur().AirNs += int64(t - tr.txStart)
	r.close(p.UID, tr, t, OutcomeDelivered)
}

// OnRequeue records a source-side re-buffer after link failure: the MAC
// gave up, the packet went back into routing for rediscovery.
func (r *Recorder) OnRequeue(t des.Time, node pkt.NodeID, p *pkt.Packet) {
	tr := r.live[p.UID]
	if tr == nil || tr.cur().Node != node {
		return
	}
	h := tr.cur()
	switch tr.phase {
	case phQueued:
		h.QueueNs += int64(t - tr.since)
	case phService:
		h.AccessNs += int64(t - tr.since)
	case phAir:
		h.RetryNs += int64(t - tr.txStart)
	default:
		return
	}
	tr.phase, tr.since = phRouting, t
}

// OnDrop closes a journey with a drop outcome. Two legitimate sites: the
// hop currently holding the packet (any phase — the remainder folds into
// that phase's span), or the intended next hop while an attempt is in
// flight (the packet arrived and was dropped by routing there — TTL
// expiry, no route — so the hop completes with its airtime first).
func (r *Recorder) OnDrop(t des.Time, node pkt.NodeID, p *pkt.Packet, reason string) {
	tr := r.live[p.UID]
	if tr == nil {
		return
	}
	h := tr.cur()
	switch {
	case tr.phase == phAir && h.Next == node:
		// Arrived at next and dropped there.
		h.AirNs += int64(t - tr.txStart)
		tr.j.Hops = append(tr.j.Hops, Hop{Node: node, Next: -1, EnterNs: int64(t)})
	case h.Node == node:
		switch tr.phase {
		case phRouting:
			h.RoutingNs += int64(t - tr.since)
		case phQueued:
			h.QueueNs += int64(t - tr.since)
		case phService:
			h.AccessNs += int64(t - tr.since)
		case phAir:
			h.RetryNs += int64(t - tr.txStart)
		}
	default:
		return
	}
	r.close(p.UID, tr, t, "drop-"+reason)
}

// close finalises a journey and recycles its tracking slot.
func (r *Recorder) close(uid uint64, tr *track, t des.Time, outcome string) {
	tr.j.DoneNs = int64(t)
	tr.j.Outcome = outcome
	r.closed = append(r.closed, tr.j)
	tr.j = nil
	r.recycleTrack(tr)
	delete(r.live, uid)
}

// EndRun closes every still-live journey as unresolved (the run ended
// with the packet in flight), folding the open phase's remainder so spans
// still telescope to t − created. Closure order is by UID — creation
// order — so the output never depends on map iteration.
func (r *Recorder) EndRun(t des.Time) {
	if len(r.live) > 0 {
		uids := make([]uint64, 0, len(r.live))
		for uid := range r.live {
			uids = append(uids, uid)
		}
		sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
		for _, uid := range uids {
			tr := r.live[uid]
			h := tr.cur()
			switch tr.phase {
			case phRouting:
				h.RoutingNs += int64(t - tr.since)
			case phQueued:
				h.QueueNs += int64(t - tr.since)
			case phService:
				h.AccessNs += int64(t - tr.since)
			case phAir:
				h.RetryNs += int64(t - tr.txStart)
			}
			r.close(uid, tr, t, OutcomeUnresolved)
		}
	}
	// RREP-WAIT windows still open at run end never selected anything;
	// their provenance is discarded (matches the protocol: no RREP sent).
	for k, w := range r.waits {
		r.recycleWait(w)
		delete(r.waits, k)
	}
}

// Journeys returns the closed journeys in completion order.
func (r *Recorder) Journeys() []*Journey { return r.closed }

// RREQDecisions returns the recorded forwarding decisions in event order.
func (r *Recorder) RREQDecisions() []RREQDecision { return r.rreq }

// ReplySelections returns the recorded RREP-WAIT selections in event
// order. They and their Candidates are the recorder's storage, valid until
// the next Begin.
func (r *Recorder) ReplySelections() []ReplySelection { return r.selections }

// RouteEvents returns the recorded route events in event order, the
// recorder's storage, valid until the next Begin.
func (r *Recorder) RouteEvents() []RouteEvent { return r.routes }

// --- decision-provenance hooks ---

// OnRREQDecision records one load-adaptive forwarding decision.
func (r *Recorder) OnRREQDecision(t des.Time, node, origin pkt.NodeID, id uint32,
	attempt int, nl float64, neighbors int, p, draw float64, forwarded bool) {
	if !r.decisions {
		return
	}
	r.rreq = append(r.rreq, RREQDecision{
		TNs: int64(t), Node: node, Origin: origin, ID: id, Attempt: attempt,
		NL: nl, Neighbors: neighbors, P: p, Draw: draw, Forwarded: forwarded,
	})
}

// OnReplyCandidate records one RREQ copy reaching an RREP-WAIT window at
// its destination (including the copy that opened the window).
func (r *Recorder) OnReplyCandidate(t des.Time, node, origin pkt.NodeID, id uint32,
	from pkt.NodeID, cost float64, hops int) {
	if !r.decisions {
		return
	}
	k := waitKey{node, origin, id}
	w := r.waits[k]
	if w == nil {
		w = r.newWait()
		r.waits[k] = w
	}
	w.cands = append(w.cands, ReplyCandidate{From: from, Cost: cost, Hops: hops, TNs: int64(t)})
}

// OnReplyClose records the window's selection: the candidate set and the
// winner the destination replied to.
func (r *Recorder) OnReplyClose(t des.Time, node, origin pkt.NodeID, id uint32,
	winnerFrom pkt.NodeID, winnerCost float64, winnerHops int) {
	if !r.decisions {
		return
	}
	k := waitKey{node, origin, id}
	w := r.waits[k]
	sel := ReplySelection{
		TNs: int64(t), Node: node, Origin: origin, ID: id,
		WinnerFrom: winnerFrom, WinnerCost: winnerCost, WinnerHops: winnerHops,
	}
	if w != nil {
		if len(w.cands) > 0 { // none stays nil, as the canonical JSON has it
			from := len(r.cands)
			r.cands = append(r.cands, w.cands...)
			sel.Candidates = r.cands[from:len(r.cands):len(r.cands)]
		}
		r.recycleWait(w)
		delete(r.waits, k)
	}
	r.selections = append(r.selections, sel)
}

// OnRouteEvent records one route-discovery or maintenance event. A warm
// recorder appends into the previous run's storage, allocating nothing.
func (r *Recorder) OnRouteEvent(ev RouteEvent) {
	if !r.decisions {
		return
	}
	r.routes = append(r.routes, ev)
}
