package routing

import (
	"cmp"
	"fmt"
	"slices"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/pkt"
	"clnlr/internal/recycle"
)

// Config tunes the shared routing machinery. The defaults follow the
// classic AODV evaluation setup.
type Config struct {
	// TTL is the initial hop limit of RREQs and data packets.
	TTL int
	// RREQRetries is how many additional floods a source attempts after
	// the first discovery times out.
	RREQRetries int
	// DiscoveryTimeout is the wait per flood before retrying/failing.
	DiscoveryTimeout des.Time
	// BufferCap bounds the per-destination queue of data packets waiting
	// for a route.
	BufferCap int
	// RouteLifetime is the validity period of installed forward routes
	// (refreshed by use); ReverseRouteLife that of RREQ reverse routes.
	RouteLifetime    des.Time
	ReverseRouteLife des.Time
	// MaxJitter is the uniform random delay added to RREQ rebroadcasts to
	// de-synchronise neighbours (the standard broadcast-jitter trick).
	MaxJitter des.Time
	// ReplyWindow, when positive, makes the destination collect RREQ
	// copies for that long and reply to the minimum-cost one (CLNLR's
	// route selection). Zero restores first-RREQ-wins.
	ReplyWindow des.Time
	// HelloEnabled turns on periodic load beacons; HelloInterval their
	// period; HelloLossAllowance how many missed beacons before a
	// neighbour's information is considered stale; TwoHopHello whether
	// beacons piggyback the sender's 1-hop load table.
	HelloEnabled       bool
	HelloInterval      des.Time
	HelloLossAllowance int
	TwoHopHello        bool
	// DupHorizon is how long RREQ flood identifiers stay in the duplicate
	// cache.
	DupHorizon des.Time
	// ExpandingRing, when non-empty, is the TTL ladder of expanding-ring
	// search (RFC 3561 §6.4): the first floods use these TTLs in order
	// before falling back to RREQRetries full-TTL floods. Nearby
	// destinations are then found with tiny, cheap floods.
	ExpandingRing []int
}

// DefaultConfig returns the baseline parameters shared by every scheme.
func DefaultConfig() Config {
	return Config{
		TTL:                30,
		RREQRetries:        2,
		DiscoveryTimeout:   des.Second,
		BufferCap:          64,
		RouteLifetime:      5 * des.Second,
		ReverseRouteLife:   3 * des.Second,
		MaxJitter:          10 * des.Millisecond,
		ReplyWindow:        0,
		HelloEnabled:       false,
		HelloInterval:      des.Second,
		HelloLossAllowance: 2,
		TwoHopHello:        false,
		DupHorizon:         5 * des.Second,
	}
}

// discovery is an in-progress route search at a source node. Records
// are recycled through Core.discFree once retired (see retire).
type discovery struct {
	dst      pkt.NodeID
	attempts int
	timer    des.Event
	buffer   []*pkt.Packet
}

// replyCandidate is the best RREQ copy collected during a reply window.
type replyCandidate struct {
	from      pkt.NodeID
	cost      float64
	hops      int
	originSeq uint32
}

// replyWait is the destination-side state of one collect-and-reply window.
type replyWait struct {
	best replyCandidate
}

// Spec is a scheme: its routing configuration plus a constructor for its
// policy. node.BuildNetwork builds agents from it, calling Policy once
// and handing the one value to every node's Core, so a policy keeps any
// per-node state keyed by the Core it is called with. Most policies hold
// only their parameters. One that carries per-run state (the counter
// scheme's assessments) reports it through HeldPackets and ReleaseHeld:
// each Core's Reset hands back what it holds for that node, so a policy
// is empty between runs and a warm engine reuses it for every run of
// its scheme (node.ResetNetwork).
type Spec struct {
	Cfg    Config
	Policy func() RREQPolicy
}

// Typed DES event ops. The Core is its own des.Handler, so its scheduling
// sites — discovery timeouts, jittered RREQ rebroadcasts, reply-window
// closes, HELLO beacons — carry a small arg instead of a captured closure.
const (
	copDiscoveryTimeout int32 = iota // arg: destination NodeID
	copDeferredSend                  // arg: deferred slot index
	copReplyWindow                   // arg: waitKeys slot index
	copHello                         // arg unused
)

// Core is the shared routing engine. One Core per node; it implements
// mac.Upper and drives the scheme-specific RREQPolicy.
type Core struct {
	Env    Env
	Cfg    Config
	policy RREQPolicy

	table  *Table
	dup    *DupCache
	nbrs   *NeighborTable
	seq    uint32
	rreqID uint32
	// pending holds the in-progress discoveries in ascending destination
	// order (the order Crash drops their buffers in).
	pending    []*discovery
	replyWaits recycle.Index[rreqKey, replyWait]
	// beacon is set once Start has armed the HELLO beacon for this run;
	// helloEv is its next tick (stopped by a crash).
	beacon  bool
	helloEv des.Event

	// Per-node scratch and free lists that keep route maintenance off the
	// heap on a warm engine. discFree holds retired discovery records
	// (buffers emptied, no packet pointers kept). unreach is the RERR list
	// handleRERR or MacTxDone builds (neither re-enters the other) and
	// nbrLoads the two-hop table sendHello piggybacks; pkt.Pool copies
	// both into the packet.
	discFree  recycle.List[*discovery]
	bufferCap int // the largest discovery buffer retired (see retire)
	unreach   []pkt.UnreachableDest
	nbrLoads  []pkt.NeighborLoad

	// deferred parks packets awaiting a jittered broadcast (RREQ
	// de-synchronisation); the typed event carries the slot index, so the
	// per-forward closure disappears.
	deferred recycle.Slab[*pkt.Packet]
	// waitKeys parks the rreqKey of each open reply window the same way.
	waitKeys recycle.Slab[rreqKey]

	// down marks a crashed node (see Crash/Recover).
	down bool

	// Ctr tallies this node's routing events. sim's runs (Engine.Run,
	// Engine.RunJourney) zero it at Warmup, so after a run it always holds
	// the measurement window, not the whole run.
	Ctr Counters
}

// Attach allocates a core's storage on sim — routing table, duplicate
// cache and neighbour table, all empty — and records sim and the node's
// packet pool in its Env, with no node bound: it routes nothing until
// Reset gives it an environment, configuration and policy (node.Attach
// and node.ResetNetwork do the two for a network, the latter naming the
// kernel and pool recorded here).
func Attach(sim *des.Sim, pool *pkt.Pool) *Core {
	return &Core{
		Env:   Env{Sim: sim, Pool: pool},
		table: NewTable(sim),
		dup:   NewDupCache(sim, 0),
		nbrs:  NewNeighborTable(sim, 0),
	}
}

// Reset starts the core's run without reallocating its grown state (ID
// indices, routing table slab, duplicate-cache rings, neighbour lists).
// It drops the volatile state as Crash does (see forget), then the run's
// own: the packets held by the outgoing policy and deferred for
// rebroadcast go back to the node's pool, and the sequence numbers,
// beacon and counters start over. policy may be the outgoing policy
// itself, kept for the next run. The environment must reference the same
// simulation the core was built on — warm replication reuse resets the
// des.Sim in place, so every component keeps its kernel pointer. The
// Deliver sink and Journey recorder come in with the new Env (the traffic
// layer reinstalls sinks and the engine the recorder per run); the last
// run's recorder closes no journey a reset drops.
func (c *Core) Reset(env Env, cfg Config, policy RREQPolicy) {
	if env.Sim != c.table.sim {
		panic("routing: Reset with a different simulation kernel")
	}
	// The Sim's reset discarded the events that would have resolved what
	// the outgoing policy holds for this node: those packets go back to
	// the pool.
	if c.policy != nil {
		c.policy.ReleaseHeld(c)
	}
	c.Cfg = cfg
	c.Env.Journey = nil
	c.forget()
	c.Env = env
	c.policy = policy
	c.seq = 0
	c.rreqID = 0
	c.beacon = false
	// The shared Sim was just Reset, discarding the events that would have
	// sent the deferred rebroadcasts: their packets go back to the pool
	// (a taken slot holds nil, which Release ignores) and their slots
	// would otherwise leak across runs.
	c.deferred.Each(c.Env.Pool.Release)
	c.deferred.Reset()
	c.waitKeys.Reset()
	c.down = false
	c.Ctr = Counters{}
	env.Mac.SetUpper(c)
}

// HandleEvent dispatches the core's typed DES events.
func (c *Core) HandleEvent(op int32, arg uint32) {
	switch op {
	case copDiscoveryTimeout:
		c.discoveryTimeout(pkt.NodeID(int32(arg)))
	case copDeferredSend:
		// No down check: the MAC makes the drop decision, exactly as the
		// pre-typed deferred closure did.
		c.Env.Mac.Send(c.deferred.Take(arg), pkt.Broadcast)
	case copReplyWindow:
		c.closeReplyWindow(c.waitKeys.Take(arg))
	case copHello:
		c.sendHello()
		c.scheduleHello(c.Cfg.HelloInterval)
	default:
		panic(fmt.Sprintf("routing: unknown event op %d", op))
	}
}

// Crash models a node failure at the routing layer: the core forgets
// its volatile state (see forget) and the HELLO beacon stops. Deferred
// rebroadcasts stay scheduled: the down MAC drops and releases them. The
// AODV sequence number and RREQ ID deliberately survive: RFC 3561 §6.1
// requires a node's sequence number to persist (or only ever advance)
// across reboots so stale pre-crash routes toward it can never beat
// fresh ones.
func (c *Core) Crash() {
	c.down = true
	c.forget()
}

// forget drops the core's volatile state, what a reboot loses and a run
// starts without: the routing table, duplicate cache and neighbour table
// empty, every in-progress discovery ends with its buffered packets
// dropped as crashed, open reply windows close unanswered and the HELLO
// beacon's next tick is cancelled. Crash and Reset both call it; a handle
// the Sim's reset made stale cancels nothing.
func (c *Core) forget() {
	c.table.Reset()
	c.dup.Reset(c.Cfg.DupHorizon)
	c.nbrs.Reset(c.Cfg.HelloInterval * des.Time(c.Cfg.HelloLossAllowance+1))
	for i, d := range c.pending {
		d.timer.Cancel()
		for _, p := range d.buffer {
			c.drop(p, &c.Ctr.DropCrashed, journey.DropCrashed)
		}
		c.retire(d)
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
	c.replyWaits.Clear()
	c.helloEv.Cancel()
}

// drop ends data packet p at this node: n counts it, the journey recorder
// (if any) closes it with reason, and p goes back to the pool.
func (c *Core) drop(p *pkt.Packet, n *uint64, reason string) {
	*n++
	if j := c.Env.Journey; j != nil {
		j.OnDrop(c.Env.Sim.Now(), c.Env.ID, p, reason)
	}
	c.Env.Pool.Release(p)
}

// Recover brings a crashed node back up with empty tables and its
// persistent sequence number, restarting the HELLO beacon with a fresh
// randomised phase.
func (c *Core) Recover() {
	if !c.down {
		return
	}
	c.down = false
	if c.beacon {
		c.scheduleHello(des.Time(c.Env.Rng.Intn(int(c.Cfg.HelloInterval))))
	}
}

// TableSize returns the current routing-table occupancy (installed
// routes, valid or not-yet-reaped) — a read-only probe for the metrics
// sampler.
func (c *Core) TableSize() int { return c.table.Len() }

// DupCacheLen returns the RREQ duplicate cache's live-entry count for the
// metrics sampler. It pops only floods that have expired, as the next Seen
// would, so calling it does not change any later Seen verdict.
func (c *Core) DupCacheLen() int { return c.dup.Len() }

// Preallocate sizes the per-node ID indices (routing table and neighbour
// table: 4 bytes per node each) for a network of n nodes, so the hot path
// never grows them. What they index grows with the destinations and
// neighbours this node meets; index growth stays lazy for callers that
// skip this. The duplicate cache has no ID index: it is sized by the
// floods live at once.
func (c *Core) Preallocate(n int) {
	c.table.idx = growIndex(c.table.idx, n-1)
	c.nbrs.pos = growIndex(c.nbrs.pos, n-1)
}

// findPending returns where the discovery for dst is, or would go, in
// c.pending, and whether it is there.
func (c *Core) findPending(dst pkt.NodeID) (int, bool) {
	return slices.BinarySearchFunc(c.pending, dst, func(d *discovery, dst pkt.NodeID) int {
		return int(d.dst) - int(dst)
	})
}

// pendingFor returns the in-progress discovery for dst, or nil.
func (c *Core) pendingFor(dst pkt.NodeID) *discovery {
	if i, ok := c.findPending(dst); ok {
		return c.pending[i]
	}
	return nil
}

// setPending installs d as the discovery for d.dst, which has none.
func (c *Core) setPending(d *discovery) {
	i, _ := c.findPending(d.dst)
	c.pending = slices.Insert(c.pending, i, d)
}

// clearPending removes the discovery for dst.
func (c *Core) clearPending(dst pkt.NodeID) {
	if i, ok := c.findPending(dst); ok {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
}

// newDiscovery returns an empty record for dst, recycled when one is free.
func (c *Core) newDiscovery(dst pkt.NodeID) *discovery {
	d, ok := c.discFree.Get()
	if !ok {
		c.discFree.Made()
		return &discovery{dst: dst, buffer: make([]*pkt.Packet, 0, c.bufferCap)}
	}
	d.dst = dst
	return d
}

// retire returns a discovery that left c.pending to the free list. Its
// buffered packets have been flushed or dropped by then; the record keeps
// neither them nor its stale timer handle. A buffer smaller than the
// largest retired before is regrown to it; a larger one raises that size
// and regrows every free record's. So each record's buffer grows at most
// once per new largest, however LIFO reuse deals long and short
// discoveries among the records, and a warm core's second pass over the
// same runs grows none.
func (c *Core) retire(d *discovery) {
	if n := cap(d.buffer); n > c.bufferCap {
		c.bufferCap = n
		c.discFree.Each(c.fitBuffer)
	}
	clear(d.buffer)
	*d = discovery{buffer: d.buffer[:0]}
	c.fitBuffer(d)
	c.discFree.Put(d)
}

// fitBuffer gives d a buffer of the largest size retired when it has less.
func (c *Core) fitBuffer(d *discovery) {
	if cap(d.buffer) < c.bufferCap {
		d.buffer = make([]*pkt.Packet, 0, c.bufferCap)
	}
}

// Start launches periodic activity (HELLO beacons when enabled).
func (c *Core) Start() {
	if c.Cfg.HelloEnabled {
		c.beacon = true
		// Randomise the first beacon across the whole interval so nodes
		// never synchronise.
		c.scheduleHello(des.Time(c.Env.Rng.Intn(int(c.Cfg.HelloInterval))))
	}
}

// scheduleHello queues the next HELLO delay from now, plus up to 100 ms
// of jitter so neighbours' beacons drift apart.
func (c *Core) scheduleHello(delay des.Time) {
	delay += des.Time(c.Env.Rng.Intn(int(100 * des.Millisecond)))
	c.helloEv = c.Env.Sim.ScheduleCall(delay, c, copHello, 0)
}

// SeqNo returns the node's own AODV sequence number. RFC 3561 §6.1 (and
// the process-algebra invariants of Fehnker et al.) require it to be
// monotone — it survives even a Crash — which the auditor checks.
func (c *Core) SeqNo() uint32 { return c.seq }

// TestSetSeq overwrites the own sequence number. Mutation-test hook for
// the invariant auditor only; production code never calls it.
func (c *Core) TestSetSeq(v uint32) { c.seq = v }

// HeldPackets reports how many pooled packets the routing layer
// currently owns: discovery buffers, jitter-deferred rebroadcasts, and
// whatever the scheme policy retains across events.
func (c *Core) HeldPackets() int {
	n := 0
	for _, d := range c.pending {
		n += len(d.buffer)
	}
	n += c.deferred.Live()
	n += c.policy.HeldPackets(c)
	return n
}

// routeEvent records a route-discovery or maintenance event, stamped
// with this node and the current time, on the journey recorder if one is
// installed.
func (c *Core) routeEvent(ev journey.RouteEvent) {
	if j := c.Env.Journey; j != nil {
		ev.TNs, ev.Node = int64(c.Env.Sim.Now()), c.Env.ID
		j.OnRouteEvent(ev)
	}
}

// Table returns the node's routing table (exposed for tests).
func (c *Core) Table() *Table { return c.table }

// Neighbors returns the HELLO-derived neighbour table.
func (c *Core) Neighbors() *NeighborTable { return c.nbrs }

// OwnLoad returns the node's cross-layer local load from the MAC.
func (c *Core) OwnLoad() float64 { return c.Env.Mac.LoadStats().Load }

// NeighborhoodLoad returns the smoothed neighbourhood load NL ∈ [0,1].
func (c *Core) NeighborhoodLoad(twoHop bool) float64 {
	return c.nbrs.NeighborhoodLoad(c.Env.ID, c.OwnLoad(), twoHop)
}

// Send submits an application data packet: route it if possible, otherwise
// buffer it and start discovery.
func (c *Core) Send(p *pkt.Packet) {
	c.Ctr.DataOriginated++
	if j := c.Env.Journey; j != nil {
		j.OnOriginate(c.Env.Sim.Now(), c.Env.ID, p)
	}
	if c.down {
		c.drop(p, &c.Ctr.DropCrashed, journey.DropCrashed)
		return
	}
	if r := c.table.Lookup(p.Dst); r != nil {
		c.forwardData(p, r)
		return
	}
	c.bufferAndDiscover(p)
}

func (c *Core) forwardData(p *pkt.Packet, r *Route) {
	c.table.Refresh(p.Dst, c.Cfg.RouteLifetime)
	c.Env.Mac.Send(p, r.NextHop)
}

func (c *Core) bufferAndDiscover(p *pkt.Packet) {
	d := c.pendingFor(p.Dst)
	if d == nil {
		d = c.newDiscovery(p.Dst)
		c.setPending(d)
		c.Ctr.DiscoveriesStarted++
		c.originateRREQ(d)
	}
	if len(d.buffer) >= c.Cfg.BufferCap {
		c.drop(p, &c.Ctr.DropBufferFull, journey.DropBufferFull)
		return
	}
	d.buffer = append(d.buffer, p)
}

// discoveryTTL returns the flood TTL for the given 1-based attempt,
// walking the expanding-ring ladder before full-TTL floods.
func (c *Core) discoveryTTL(attempt int) int {
	rings := c.Cfg.ExpandingRing
	if attempt <= len(rings) {
		ttl := rings[attempt-1]
		if ttl < 1 {
			ttl = 1
		}
		if ttl > c.Cfg.TTL {
			ttl = c.Cfg.TTL
		}
		return ttl
	}
	return c.Cfg.TTL
}

// maxDiscoveryAttempts returns the total flood budget: the ring ladder
// plus 1+RREQRetries full-TTL floods.
func (c *Core) maxDiscoveryAttempts() int {
	return len(c.Cfg.ExpandingRing) + 1 + c.Cfg.RREQRetries
}

// originateRREQ floods (or re-floods) a route request for d.dst.
func (c *Core) originateRREQ(d *discovery) {
	d.attempts++
	c.seq++
	c.rreqID++
	attempt := d.attempts - 1
	if attempt > 255 {
		attempt = 255
	}
	body := pkt.RREQBody{
		ID:        c.rreqID,
		Origin:    c.Env.ID,
		OriginSeq: c.seq,
		Target:    d.dst,
		HopCount:  0,
		Cost:      0,
		Attempt:   uint8(attempt),
	}
	if old, ok := c.table.Get(d.dst); ok && old.SeqValid {
		body.TargetSeq = old.Seq
		body.TargetSeqKnown = true
	}
	p := c.Env.Pool.RREQ(body, c.Env.Sim.Now(), c.discoveryTTL(d.attempts))
	// Remember our own flood so echoed copies are ignored cheaply.
	c.dup.Seen(c.Env.ID, c.rreqID)
	c.Ctr.RREQOriginated++
	c.routeEvent(journey.RouteEvent{Kind: journey.EventRREQOriginate, Peer: d.dst, ID: c.rreqID, Attempt: d.attempts})
	c.Env.Mac.Send(p, pkt.Broadcast)
	d.timer = c.Env.Sim.ScheduleCall(c.Cfg.DiscoveryTimeout, c, copDiscoveryTimeout, uint32(d.dst))
}

// discoveryTimeout fires when a flood's answer window lapses. A live
// timeout always belongs to the current discovery for dst: every path that
// retires a discovery (routeReady, Crash) cancels its timer first, so the
// lookup by destination is equivalent to a captured-pointer identity check.
func (c *Core) discoveryTimeout(dst pkt.NodeID) {
	d := c.pendingFor(dst)
	if d == nil {
		return // already resolved
	}
	if d.attempts >= c.maxDiscoveryAttempts() {
		c.Ctr.DiscoveriesFailed++
		for _, p := range d.buffer {
			c.drop(p, &c.Ctr.DropNoRoute, journey.DropNoRoute)
		}
		c.clearPending(d.dst)
		c.routeEvent(journey.RouteEvent{Kind: journey.EventDiscoveryFail, Peer: d.dst, Buffered: len(d.buffer)})
		c.retire(d)
		return
	}
	c.originateRREQ(d)
}

// routeReady flushes buffered traffic once discovery for dst succeeds.
func (c *Core) routeReady(dst pkt.NodeID) {
	d := c.pendingFor(dst)
	if d == nil {
		return
	}
	r := c.table.Lookup(dst)
	if r == nil {
		return
	}
	d.timer.Cancel()
	c.clearPending(dst)
	c.Ctr.DiscoveriesSucceeded++
	c.routeEvent(journey.RouteEvent{Kind: journey.EventDiscoveryOK, Peer: dst, Via: r.NextHop, Cost: r.Cost, Buffered: len(d.buffer)})
	for _, p := range d.buffer {
		c.forwardData(p, r)
	}
	c.retire(d)
}

// ForwardRREQ rebroadcasts a received RREQ copy on the policy's behalf:
// it applies TTL, hop-count and cost updates plus the de-synchronisation
// jitter, then hands the clone to the MAC. extraDelay is added before the
// jitter (schemes with assessment delays pass their remainder here).
func (c *Core) ForwardRREQ(p *pkt.Packet, extraDelay des.Time) {
	if p.TTL <= 1 {
		c.Ctr.DropTTL++
		return
	}
	q := c.Env.Pool.Clone(p)
	q.TTL--
	q.RREQ.HopCount++
	q.RREQ.Cost += c.policy.CostIncrement(c)
	delay := extraDelay
	if c.Cfg.MaxJitter > 0 {
		delay += des.Time(c.Env.Rng.Intn(int(c.Cfg.MaxJitter)))
	}
	c.Ctr.RREQForwarded++
	c.Env.Sim.ScheduleCall(delay, c, copDeferredSend, c.deferred.Add(q))
}

// SuppressRREQ records that the policy declined to forward a copy.
func (c *Core) SuppressRREQ() {
	c.Ctr.RREQSuppressed++
}

// --- inbound dispatch (mac.Upper) ---

// MacReceive implements mac.Upper.
func (c *Core) MacReceive(p *pkt.Packet, from pkt.NodeID) {
	if c.down {
		return
	}
	switch p.Kind {
	case pkt.RREQ:
		c.handleRREQ(p, from)
	case pkt.RREP:
		c.handleRREP(p, from)
	case pkt.RERR:
		c.handleRERR(p, from)
	case pkt.Hello:
		c.handleHello(p, from)
	case pkt.Data:
		c.handleData(p, from)
	}
}

func (c *Core) handleRREQ(p *pkt.Packet, from pkt.NodeID) {
	c.Ctr.RREQReceived++
	b := p.RREQ
	if b.Origin == c.Env.ID {
		return // echo of our own flood
	}
	first := !c.dup.Seen(b.Origin, b.ID)

	// Reverse route toward the origin (updated by better copies too).
	c.table.Update(Route{
		Dst:      b.Origin,
		NextHop:  from,
		HopCount: b.HopCount + 1,
		Cost:     b.Cost,
		Seq:      b.OriginSeq,
		SeqValid: true,
		Expires:  c.Env.Sim.Now() + c.Cfg.ReverseRouteLife,
		Valid:    true,
	})

	if b.Target == c.Env.ID {
		c.handleTargetRREQ(p, from, first)
		return
	}
	c.policy.OnRREQ(c, p, from, first)
}

// handleTargetRREQ implements the destination's reply behaviour.
func (c *Core) handleTargetRREQ(p *pkt.Packet, from pkt.NodeID, first bool) {
	b := p.RREQ
	if c.Cfg.ReplyWindow <= 0 {
		if first {
			c.sendRREPAsTarget(b.Origin, from, b.Cost)
		}
		return
	}
	k := rreqKey{b.Origin, b.ID}
	cand := replyCandidate{from: from, cost: b.Cost, hops: b.HopCount, originSeq: b.OriginSeq}
	w, ok := c.replyWaits.Get(k)
	if !ok {
		if !first {
			// The window for this flood already closed and was answered;
			// a straggler copy must not open another one (that would
			// storm duplicate RREPs back toward the origin).
			return
		}
		if j := c.Env.Journey; j != nil {
			j.OnReplyCandidate(c.Env.Sim.Now(), c.Env.ID, b.Origin, b.ID, from, b.Cost, b.HopCount)
		}
		c.replyWaits.Put(k, replyWait{best: cand})
		c.Env.Sim.ScheduleCall(c.Cfg.ReplyWindow, c, copReplyWindow, c.waitKeys.Add(k))
		return
	}
	if j := c.Env.Journey; j != nil {
		j.OnReplyCandidate(c.Env.Sim.Now(), c.Env.ID, b.Origin, b.ID, from, b.Cost, b.HopCount)
	}
	const eps = 1e-9
	if cand.cost < w.best.cost-eps ||
		(cand.cost <= w.best.cost+eps && cand.hops < w.best.hops) {
		c.replyWaits.Put(k, replyWait{best: cand})
	}
}

// closeReplyWindow answers the best RREQ copy collected for flood k.
func (c *Core) closeReplyWindow(k rreqKey) {
	ww, ok := c.replyWaits.Get(k)
	if !ok {
		return // window discarded by a crash before it closed
	}
	c.replyWaits.Delete(k)
	if j := c.Env.Journey; j != nil {
		j.OnReplyClose(c.Env.Sim.Now(), c.Env.ID, k.origin, k.id, ww.best.from, ww.best.cost, ww.best.hops)
	}
	c.sendRREPAsTarget(k.origin, ww.best.from, ww.best.cost)
}

// sendRREPAsTarget generates the route reply and unicasts it to the chosen
// previous hop.
func (c *Core) sendRREPAsTarget(origin, via pkt.NodeID, cost float64) {
	c.seq++
	body := pkt.RREPBody{
		Origin:    origin,
		Target:    c.Env.ID,
		TargetSeq: c.seq,
		HopCount:  0,
		Cost:      cost,
		Lifetime:  c.Cfg.RouteLifetime,
	}
	p := c.Env.Pool.RREP(c.Env.ID, body, c.Env.Sim.Now(), c.Cfg.TTL)
	c.Ctr.RREPSent++
	c.routeEvent(journey.RouteEvent{Kind: journey.EventRREPSend, Peer: origin, Via: via, Cost: cost})
	c.Env.Mac.Send(p, via)
}

func (c *Core) handleRREP(p *pkt.Packet, from pkt.NodeID) {
	// RREPs always arrive unicast, so p is this node's own clone (see
	// mac.Upper contract) and dies here on every path — the forwarding
	// branch hands the MAC a fresh clone.
	defer c.Env.Pool.Release(p)
	c.Ctr.RREPReceived++
	b := p.RREP
	if b.Target == c.Env.ID {
		// The reply names this node as its own destination: a reverse
		// route upstream was displaced by a better flood copy that
		// arrived through us, steering the RREP back into its target.
		// Installing the forward route would give this node a route to
		// itself, and forwarding would ping-pong until TTL death — drop;
		// the origin either heard a healthy copy or retries discovery.
		return
	}
	// Install/refresh the forward route to the target.
	c.table.Update(Route{
		Dst:      b.Target,
		NextHop:  from,
		HopCount: b.HopCount + 1,
		Cost:     b.Cost,
		Seq:      b.TargetSeq,
		SeqValid: true,
		Expires:  c.Env.Sim.Now() + b.Lifetime,
		Valid:    true,
	})
	if b.Origin == c.Env.ID {
		c.routeReady(b.Target)
		return
	}
	// Forward along the reverse route toward the origin.
	r := c.table.Lookup(b.Origin)
	if r == nil {
		return // reverse route evaporated; origin will retry
	}
	if p.TTL <= 1 {
		c.Ctr.DropTTL++
		return
	}
	q := c.Env.Pool.Clone(p)
	q.TTL--
	q.RREP.HopCount++
	c.Ctr.RREPForwarded++
	c.Env.Mac.Send(q, r.NextHop)
}

func (c *Core) handleRERR(p *pkt.Packet, from pkt.NodeID) {
	c.Ctr.RERRReceived++
	lost := c.unreach[:0]
	for _, u := range p.RERR.Unreachable {
		if seq, ok := c.table.InvalidateFrom(u.Node, from, u.Seq); ok {
			lost = append(lost, pkt.UnreachableDest{Node: u.Node, Seq: seq})
		}
	}
	c.unreach = lost
	if len(lost) > 0 {
		c.sendRERR(lost)
	}
}

// sendRERR broadcasts lost in destination order. The entries name
// distinct destinations, so the order is unique; the pool copies the
// list, which leaves lost free for reuse.
func (c *Core) sendRERR(lost []pkt.UnreachableDest) {
	slices.SortFunc(lost, func(a, b pkt.UnreachableDest) int { return cmp.Compare(a.Node, b.Node) })
	p := c.Env.Pool.RERR(c.Env.ID, lost, c.Env.Sim.Now())
	c.Ctr.RERRSent++
	c.Env.Mac.Send(p, pkt.Broadcast)
}

func (c *Core) sendHello() {
	body := pkt.HelloBody{Load: c.OwnLoad()}
	if c.Cfg.TwoHopHello {
		c.nbrLoads = c.nbrs.Loads(c.nbrLoads)
		body.NbrLoads = c.nbrLoads
	}
	p := c.Env.Pool.Hello(c.Env.ID, body, c.Env.Sim.Now())
	c.Ctr.HelloSent++
	c.Env.Mac.Send(p, pkt.Broadcast)
}

func (c *Core) handleHello(p *pkt.Packet, from pkt.NodeID) {
	c.Ctr.HelloHeard++
	c.nbrs.Update(from, p.Hello.Load, p.Hello.NbrLoads)
}

func (c *Core) handleData(p *pkt.Packet, from pkt.NodeID) {
	// Data always arrives unicast, so p is this node's own clone: it is
	// released on every path except forwarding, which transfers ownership
	// to the MAC queue (reclaimed at MacTxDone).
	if p.Dst == c.Env.ID {
		c.Ctr.DataDelivered++
		if j := c.Env.Journey; j != nil {
			j.OnDeliver(c.Env.Sim.Now(), c.Env.ID, p)
		}
		if c.Env.Deliver != nil {
			c.Env.Deliver(p, from)
		}
		c.Env.Pool.Release(p)
		return
	}
	if p.TTL <= 1 {
		c.drop(p, &c.Ctr.DropTTL, journey.DropTTL)
		return
	}
	r := c.table.Lookup(p.Dst)
	if r == nil {
		c.sendRERR([]pkt.UnreachableDest{{Node: p.Dst, Seq: c.staleSeq(p.Dst)}})
		c.drop(p, &c.Ctr.DropNoRoute, journey.DropNoRoute)
		return
	}
	p.TTL--
	c.Ctr.DataForwarded++
	if j := c.Env.Journey; j != nil {
		j.OnArrive(c.Env.Sim.Now(), c.Env.ID, p)
	}
	c.forwardData(p, r)
}

// staleSeq returns the best-known (bumped) sequence number for an
// unreachable destination.
func (c *Core) staleSeq(dst pkt.NodeID) uint32 {
	if r, ok := c.table.Get(dst); ok && r.SeqValid {
		return r.Seq + 1
	}
	return 0
}

// MacTxDone implements mac.Upper: unicast failures signal link breakage.
// This is also where the MAC hands back ownership of every packet this
// node gave it, so all paths but re-buffering release p. A crashed node
// leaves the packet to the GC (it may still be on the air — the same
// trade the MAC makes with its frames).
func (c *Core) MacTxDone(p *pkt.Packet, dst pkt.NodeID, ok bool) {
	if c.down {
		return
	}
	if ok || dst == pkt.Broadcast {
		c.Env.Pool.Release(p)
		return
	}
	// The link to dst is dead: purge routes through it and tell upstream.
	lost := c.table.InvalidateVia(dst, c.unreach[:0])
	c.unreach = lost
	c.nbrs.Remove(dst)
	c.routeEvent(journey.RouteEvent{Kind: journey.EventLinkFail, Peer: dst, Routes: len(lost), Frame: p.Kind.String()})

	if p.Kind == pkt.Data && p.Src == c.Env.ID {
		// We originated it: try to re-discover rather than lose it.
		if j := c.Env.Journey; j != nil {
			j.OnRequeue(c.Env.Sim.Now(), c.Env.ID, p)
		}
		c.bufferAndDiscover(p)
	} else if p.Kind == pkt.Data {
		c.drop(p, &c.Ctr.DropLinkFail, journey.DropLinkFail)
	} else {
		c.Env.Pool.Release(p)
	}
	if len(lost) > 0 {
		c.sendRERR(lost)
	}
}
