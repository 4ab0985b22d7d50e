// Package mac implements an IEEE 802.11-style DCF (CSMA/CA) medium access
// layer: carrier sensing with DIFS/EIFS deferral, slotted binary
// exponential backoff, positive acknowledgement with retransmission for
// unicast frames, drop-tail interface queueing, and duplicate filtering.
//
// It also hosts the cross-layer load estimator (load.go): smoothed queue
// occupancy and channel busy fraction, which the CLNLR routing layer reads
// through LoadStats — the "cross layer" of the paper's title.
package mac

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/recycle"
	"clnlr/internal/rng"
)

// Upper is the interface the network layer exposes to its MAC. Callbacks
// run on the simulation goroutine.
type Upper interface {
	// MacReceive delivers a packet that arrived intact and passed
	// duplicate filtering. from is the transmitting neighbour.
	// Broadcast deliveries share one packet object across all
	// receivers (and with the sender): the callee must treat it as
	// immutable and clone before mutating or forwarding. Unicast
	// deliveries are private clones the callee may mutate freely.
	MacReceive(p *pkt.Packet, from pkt.NodeID)
	// MacTxDone reports the fate of a previously submitted packet:
	// ok=true when the broadcast finished or the unicast was acknowledged,
	// ok=false when the retry limit was exhausted (the routing layer
	// treats that as a broken link).
	MacTxDone(p *pkt.Packet, dst pkt.NodeID, ok bool)
}

// accessState enumerates the DCF channel-access phases.
type accessState uint8

const (
	accIdle      accessState = iota // no frame contending
	accWaitIdle                     // frame pending, carrier/NAV busy
	accDefer                        // DIFS/EIFS in progress
	accBackoff                      // backoff countdown in progress
	accTx                           // our data frame on the air
	accWaitAck                      // data sent, awaiting ACK
	accPostponed                    // paused while our own ACK/CTS occupies the radio
	accTxRts                        // our RTS on the air
	accWaitCts                      // RTS sent, awaiting CTS
	accTxData                       // CTS received, data follows after SIFS
)

// outgoing is the frame currently contending for the channel.
type outgoing struct {
	frame   *Frame
	retries int
}

// Typed DES event ops for the recurring DCF callbacks. The MAC is its own
// des.Handler, so timer scheduling never allocates; the ops that need a
// peer (opSendAck, opSendCts) carry the destination in the event arg.
const (
	opNavExpire int32 = iota
	opDeferDone
	opBackoffDone
	opTimeout // no ACK after the data frame, or no CTS after the RTS
	opSendData
	opSendAck
	opSendCts
)

// HandleEvent dispatches the MAC's typed DES events.
func (m *Mac) HandleEvent(op int32, arg uint32) {
	switch op {
	case opNavExpire:
		m.onNavExpire()
	case opDeferDone:
		m.onDeferDone()
	case opBackoffDone:
		m.onBackoffDone()
	case opTimeout:
		m.onTimeout()
	case opSendData:
		m.sendCurData()
	case opSendAck:
		m.sendResponse(AckFrame, pkt.NodeID(int32(arg)), 0)
	case opSendCts:
		m.sendResponse(CTSFrame, pkt.NodeID(int32(arg)), m.ctsNav)
	default:
		panic(fmt.Sprintf("mac %v: unknown event op %d", m.id, op))
	}
}

// newFrame takes a pooled Frame (zeroed on release) or allocates one.
func (m *Mac) newFrame() *Frame {
	if f, ok := m.frameFree.Get(); ok {
		return f
	}
	m.frameFree.Made()
	return &Frame{}
}

// releaseFrame zeroes f and returns it to the pool. The caller owns the
// last reference: the frame must be off the air with every receiver's
// RadioReceive complete.
func (m *Mac) releaseFrame(f *Frame) {
	*f = Frame{}
	m.frameFree.Put(f)
}

// discard returns a frame the MAC gives up, and its payload, to their
// pools (a control frame has no payload; releasing nil is a no-op).
func (m *Mac) discard(f *Frame) {
	m.pool.Release(f.Payload)
	m.releaseFrame(f)
}

// flush empties the interface queue and the service slot into the pools,
// closing each data payload's journey as crashed first when a recorder is
// installed. A frame in service that is airing (the radio's payload on the
// air) is kept out of them: the medium still carries it, so it becomes the
// orphan that RadioTxDone releases.
func (m *Mac) flush(airing any) {
	for i, f := range m.queue {
		m.dropJourney(f)
		m.discard(f)
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
	if m.cur != nil {
		f := m.cur.frame
		m.dropJourney(f)
		if airing == any(f) {
			m.orphan = f
		} else {
			m.discard(f)
		}
	}
	m.cur = nil
	m.curBuf = outgoing{}
}

// dropJourney closes the journey of data frame f's payload as crashed. The
// recorder's ownership guards make this safe for packets whose journey
// already moved past this node.
func (m *Mac) dropJourney(f *Frame) {
	if m.journey != nil && f.Type == DataFrame && f.Payload != nil && f.Payload.Kind == pkt.Data {
		m.journey.OnDrop(m.sim.Now(), m.id, f.Payload, journey.DropCrashed)
	}
}

// Mac is one node's medium-access entity.
type Mac struct {
	cfg   Config
	sim   *des.Sim
	radio *radio.Radio
	src   *rng.Source
	upper Upper
	id    pkt.NodeID

	queue []*Frame
	// cur points at curBuf while a frame is in service (nil otherwise);
	// the buffer is reused so promoting a frame does not allocate.
	cur    *outgoing
	curBuf outgoing
	state  accessState

	cw           int
	backoffSlots int
	backoffStart des.Time
	backoffEv    des.Event
	deferEv      des.Event
	ackEv        des.Event
	ctsEv        des.Event

	// The DCF's fixed-delay timers, taken from cfg by Reset: defers,
	// the SIFS before every response, and the ACK and CTS timeouts.
	difs, eifs, sifs, ackWait, ctsWait des.Lane

	useEIFS      bool
	pendingAckTx bool

	// navUntil is the virtual-carrier-sense reservation learned from
	// overheard RTS/CTS frames; the channel counts as busy until then.
	navUntil des.Time
	navEv    des.Event

	// ctsNav is the NAV the SIFS-deferred CTS (opSendCts) will announce.
	// At most one response can be pending — a second frame cannot finish
	// arriving within SIFS of the previous one (every airtime ≫ SIFS) — so
	// a single field suffices; the destination rides in the event arg.
	ctsNav des.Time

	// frameFree pools Frame objects so the per-packet Send/ACK/RTS/CTS
	// allocations disappear in steady state. Frames return to the pool
	// when their last reference dies: data frames in finishCur, control
	// frames at their RadioTxDone (receivers only borrow frames inside
	// RadioReceive, which completes before the sender's TxDone fires).
	// Reset and Crash return the frames they discard, payloads included.
	frameFree recycle.List[*Frame]

	// orphan is the data frame a Crash took out of service while it was
	// on the air (nil otherwise). Its payload stays held — HeldPackets
	// counts it — until RadioTxDone ends the airtime and releases both,
	// down or not. At most one frame of a node is on the air at a time.
	orphan *Frame

	// ctrlAir is the control frame (RTS, CTS or ACK) the MAC has on the
	// air, nil otherwise: a warm Reset, whose medium reset ends the
	// airtime with no RadioTxDone, takes it back into frameFree.
	ctrlAir *Frame

	// pool, when non-nil, is this node's packet pool: the clone handed up
	// for a delivered unicast payload comes from it, and the routing layer
	// releases it back (pkt.Pool documents the ownership discipline).
	pool *pkt.Pool

	// journey, when non-nil, receives data-packet lifecycle events
	// (enqueue, service, tx start, crash drops). Cleared by Reset — the
	// harness reinstalls it per run, unlike the pool, so a journeyed run
	// can never leak instrumentation into the next.
	journey *journey.Recorder

	// Per-peer state, dense by NodeID (node IDs are 0..N-1): lastSeq[i]
	// is the last unicast sequence number heard from peer i (-1 = none),
	// arf[i] its link-adaptation state. Both grow on first contact, arf
	// only from arfFor, that is only under Config.AutoRate.
	seq     uint16
	lastSeq []int32
	arf     []arfState

	le loadEstimator

	// down marks a crashed node: Send drops, radio callbacks and
	// SIFS-deferred responses are ignored (see Crash/Recover).
	down bool

	// Ctr exposes event counts to the measurement layer. sim's runs
	// (Engine.Run, Engine.RunJourney) zero it at Warmup, so after a run it
	// always holds the measurement window, not the whole run.
	Ctr Counters
}

// New creates a MAC bound to the given radio and ready to run: Attach,
// then Reset. id must be the node's network identity; src a private random
// stream for backoff draws.
func New(cfg Config, sim *des.Sim, r *radio.Radio, id pkt.NodeID, src *rng.Source) *Mac {
	m := Attach(sim, r, id)
	m.Reset(cfg, src)
	return m
}

// Attach allocates a MAC bound to the given radio, with no configuration:
// it runs nothing until Reset gives it one and a random stream.
func Attach(sim *des.Sim, r *radio.Radio, id pkt.NodeID) *Mac {
	m := &Mac{
		sim:   sim,
		radio: r,
		id:    id,
	}
	r.SetListener(m)
	return m
}

// Reset starts the MAC's run with a configuration and random stream,
// reusing the dense per-peer state and queue backing storage (warm
// replication reuse). The bound simulation, radio and upper layer survive.
// It drops the volatile state as Crash does (see halt), then the run's
// own: the orphan and the control frame the medium's reset took off the
// air, the sequence number, the journey recorder, the load estimator and
// the counters. So a reset MAC behaves bit-identically to a freshly built
// one, and the frames the last run left queued, in service or orphaned go
// back to the frame pool and their payloads to the packet pool.
// Call only between runs, with the shared des.Sim and radio.Medium
// already Reset (no frame is on the air any more).
func (m *Mac) Reset(cfg Config, src *rng.Source) {
	m.cfg = cfg
	m.src = src
	m.difs = m.sim.Lane(cfg.DIFS())
	m.eifs = m.sim.Lane(cfg.EIFS())
	m.sifs = m.sim.Lane(cfg.SIFS)
	m.ackWait = m.sim.Lane(cfg.AckTimeout())
	m.ctsWait = m.sim.Lane(cfg.CTSTimeout())
	m.journey = nil
	m.halt()
	if f := m.orphan; f != nil {
		m.orphan = nil
		m.discard(f)
	}
	if f := m.ctrlAir; f != nil {
		m.ctrlAir = nil
		m.releaseFrame(f)
	}
	m.seq = 0
	m.down = false
	m.le.init(&m.cfg, m.sim, m.radio)
	m.Ctr = Counters{}
}

// halt drops the MAC's volatile state, what a power cycle loses and a run
// starts without: the interface queue and the frame in service go to the
// pools (see flush), contention returns to idle with the minimum window,
// every pending DCF timer is cancelled, the NAV, EIFS and pending-response
// flags clear, and the duplicate filter and rate adaptation forget every
// peer. Crash and Reset both call it; a handle the Sim's reset made stale
// cancels nothing.
func (m *Mac) halt() {
	m.flush(m.radio.Airing())
	m.setState(accIdle)
	m.cw = m.cfg.CWMin
	m.backoffSlots = 0
	m.backoffEv.Cancel()
	m.deferEv.Cancel()
	m.ackEv.Cancel()
	m.ctsEv.Cancel()
	m.navEv.Cancel()
	m.useEIFS = false
	m.pendingAckTx = false
	m.navUntil = 0
	for i := range m.lastSeq {
		m.lastSeq[i] = -1
	}
	clear(m.arf)
}

// Crash models a node failure: the MAC halts (see halt) — a power-cycled
// interface renegotiates its link state from scratch, and a frame still
// on the air becomes the orphan RadioTxDone releases. Counters and the
// load estimator survive (the sampling clock keeps calling, so the
// estimate decays to zero while the node is silent). The caller crashes
// the radio separately; a truncated frame stays on the air until its
// airtime ends.
func (m *Mac) Crash() {
	m.down = true
	m.halt()
	m.le.setQueueLen(0)
	m.le.truncate()
}

// Recover brings a crashed MAC back up, idle with nothing contending. Call
// before recovering the radio, which then senses the carrier again (the
// MAC reads it from there when a frame next contends).
func (m *Mac) Recover() { m.down = false }

// SetUpper installs the network layer (two-phase: the routing agent needs
// the MAC reference too).
func (m *Mac) SetUpper(u Upper) { m.upper = u }

// SetPool installs the node's packet pool (nil allocates every clone
// fresh and keeps nothing).
// Survives Reset, like the upper layer.
func (m *Mac) SetPool(p *pkt.Pool) { m.pool = p }

// SetJourney installs the journey recorder (nil disables). Unlike the
// pool it does NOT survive Reset; the harness reinstalls it per run.
func (m *Mac) SetJourney(r *journey.Recorder) { m.journey = r }

// SampleLoad closes the load estimator's current window. The network's
// one sampling clock (node.StartAll) calls it every LoadSampleInterval.
func (m *Mac) SampleLoad() { m.le.sample() }

// LoadSampleInterval returns the configured load-window length.
func (m *Mac) LoadSampleInterval() des.Time { return m.cfg.LoadSampleInterval }

// LoadStats returns the cross-layer load measurements.
func (m *Mac) LoadStats() LoadStats { return m.le.stats() }

// QueueLen returns the current interface-queue length (incl. the frame in
// service).
func (m *Mac) QueueLen() int {
	n := len(m.queue)
	if m.cur != nil {
		n++
	}
	return n
}

// HeldPackets reports how many pooled packets the MAC currently owns —
// the queued payloads, the frame in service and the orphan still on the
// air after a Crash. The auditor's packet-conservation check sums this
// with the routing layer's holdings against the pool's live-borrow ledger.
func (m *Mac) HeldPackets() int {
	n := m.QueueLen()
	if m.orphan != nil {
		n++
	}
	return n
}

// Send submits a packet for transmission to nextHop (pkt.Broadcast for
// link-layer broadcast). The packet joins the drop-tail interface queue;
// drops are counted, not reported.
func (m *Mac) Send(p *pkt.Packet, nextHop pkt.NodeID) {
	if m.down {
		m.Ctr.DroppedDown++
		if m.journey != nil && p.Kind == pkt.Data {
			m.journey.OnDrop(m.sim.Now(), m.id, p, journey.DropDown)
		}
		m.pool.Release(p)
		return
	}
	if len(m.queue) >= m.cfg.QueueCap {
		m.Ctr.DroppedQueueFull++
		if m.journey != nil && p.Kind == pkt.Data {
			m.journey.OnDrop(m.sim.Now(), m.id, p, journey.DropMacQueueFull)
		}
		m.pool.Release(p)
		return
	}
	f := m.newFrame()
	f.Type = DataFrame
	f.Src = m.id
	f.Dst = nextHop
	f.Payload = p
	f.Bytes = m.cfg.DataHeaderBytes + p.Bytes
	if nextHop != pkt.Broadcast {
		m.seq++
		f.Seq = m.seq
	}
	if m.cfg.ControlPriority && p.Kind.IsControl() {
		// Insert behind any queued control packets but ahead of data.
		pos := 0
		for pos < len(m.queue) && m.queue[pos].Payload.Kind.IsControl() {
			pos++
		}
		m.queue = append(m.queue, nil)
		copy(m.queue[pos+1:], m.queue[pos:])
		m.queue[pos] = f
	} else {
		m.queue = append(m.queue, f)
	}
	m.Ctr.Enqueued++
	if m.journey != nil && p.Kind == pkt.Data {
		m.journey.OnMacEnqueue(m.sim.Now(), m.id, p, nextHop)
	}
	m.le.setQueueLen(m.QueueLen())
	m.next()
}

// next promotes the head of the queue to the contention slot.
func (m *Mac) next() {
	if m.cur != nil || len(m.queue) == 0 {
		return
	}
	f := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue[len(m.queue)-1] = nil
	m.queue = m.queue[:len(m.queue)-1]
	m.curBuf = outgoing{frame: f}
	m.cur = &m.curBuf
	m.cw = m.cfg.CWMin
	if m.journey != nil && f.Payload != nil && f.Payload.Kind == pkt.Data {
		m.journey.OnMacService(m.sim.Now(), m.id, f.Payload)
	}
	m.drawBackoff()
	m.startAccess()
}

func (m *Mac) drawBackoff() {
	m.backoffSlots = m.src.Intn(m.cw + 1)
}

// channelBusy combines physical carrier sense — the radio's recorded
// carrier flag, see radio.Radio.CarrierBusy — with the NAV reservation.
func (m *Mac) channelBusy() bool {
	return m.radio.CarrierBusy() || m.sim.Now() < m.navUntil
}

// setState moves the DCF state machine and asks the radio for carrier
// edges exactly while RadioCarrier would act on one: with a frame waiting
// for the channel, deferring or backing off.
func (m *Mac) setState(s accessState) {
	m.state = s
	m.radio.WantCarrier(s == accWaitIdle || s == accDefer || s == accBackoff)
}

// setNAV extends the virtual-carrier reservation to now+dur and arranges
// to resume channel access when it lapses.
func (m *Mac) setNAV(dur des.Time) {
	until := m.sim.Now() + dur
	if until <= m.navUntil {
		return
	}
	wasBusy := m.channelBusy()
	m.navUntil = until
	m.navEv.Cancel()
	m.navEv = m.sim.ScheduleCall(dur, m, opNavExpire, 0)
	if !wasBusy {
		// NAV newly blocks the channel: freeze contention exactly as a
		// physical-carrier busy transition would.
		m.freezeContention()
	}
}

func (m *Mac) onNavExpire() {
	if m.channelBusy() {
		return // physical carrier still busy; its idle event resumes us
	}
	if m.state == accWaitIdle {
		m.beginDefer()
	}
}

// freezeContention suspends an in-progress defer or backoff.
func (m *Mac) freezeContention() {
	switch m.state {
	case accDefer:
		m.deferEv.Cancel()
		m.setState(accWaitIdle)
	case accBackoff:
		m.backoffEv.Cancel()
		elapsed := int((m.sim.Now() - m.backoffStart) / m.cfg.SlotTime)
		m.backoffSlots -= elapsed
		if m.backoffSlots < 0 {
			m.backoffSlots = 0
		}
		m.setState(accWaitIdle)
	}
}

// startAccess (re)enters the channel-access sequence for m.cur.
func (m *Mac) startAccess() {
	if m.pendingAckTx || m.radio.Transmitting() {
		m.setState(accPostponed)
		return
	}
	if m.channelBusy() {
		m.setState(accWaitIdle)
		return
	}
	m.beginDefer()
}

func (m *Mac) beginDefer() {
	m.setState(accDefer)
	d := m.difs
	if m.useEIFS {
		d = m.eifs
	}
	m.deferEv = d.Call(m, opDeferDone, 0)
}

func (m *Mac) onDeferDone() {
	m.useEIFS = false
	m.setState(accBackoff)
	m.backoffStart = m.sim.Now()
	m.backoffEv = m.sim.ScheduleCall(des.Time(m.backoffSlots)*m.cfg.SlotTime, m, opBackoffDone, 0)
}

func (m *Mac) onBackoffDone() {
	m.backoffSlots = 0
	m.transmitCur()
}

func (m *Mac) transmitCur() {
	if m.pendingAckTx || m.radio.Transmitting() {
		m.setState(accPostponed)
		return
	}
	f := m.cur.frame
	if f.Dst != pkt.Broadcast && m.cfg.usesRTS(f.Bytes) {
		m.transmitRTS()
		return
	}
	m.setState(accTx)
	m.transmitData(f)
}

// transmitData puts data frame f on the air: a broadcast at the basic
// rate, a unicast at the rate ARF holds for its next hop.
func (m *Mac) transmitData(f *Frame) {
	if m.journey != nil && f.Payload.Kind == pkt.Data {
		m.journey.OnMacTxStart(m.sim.Now(), m.id, f.Payload)
	}
	if f.Dst == pkt.Broadcast {
		m.Ctr.TxBroadcast++
		m.radio.Transmit(f, f.Bytes, m.cfg.TxDuration(f.Bytes, m.cfg.BasicRateBps))
		return
	}
	m.Ctr.TxData++
	rate := m.unicastRate(f.Dst)
	m.radio.TransmitRated(f, f.Bytes, m.cfg.TxDuration(f.Bytes, rate), m.snrScale(rate))
}

// transmitRTS opens the virtual-carrier handshake for the frame in
// service.
func (m *Mac) transmitRTS() {
	f := m.cur.frame
	dataDur := m.cfg.TxDuration(f.Bytes, m.unicastRate(f.Dst))
	// NAV announced by the RTS: the rest of the exchange after its airtime.
	nav := m.cfg.SIFS + m.cfg.CTSDuration() + m.cfg.SIFS + dataDur +
		m.cfg.SIFS + m.cfg.AckDuration()
	rts := m.newFrame()
	rts.Type, rts.Src, rts.Dst, rts.Bytes, rts.Dur = RTSFrame, m.id, f.Dst, m.cfg.RTSBytes, nav
	m.setState(accTxRts)
	m.Ctr.TxRTS++
	m.transmitControl(rts, m.cfg.RTSDuration())
}

// sendCurData fires SIFS after the CTS: the protected data transmission.
func (m *Mac) sendCurData() {
	if m.cur == nil || m.state != accTxData {
		return
	}
	if m.radio.Transmitting() {
		// Should be impossible inside the reservation; recover via the
		// normal retry machinery rather than crashing.
		m.onTimeout()
		return
	}
	m.transmitData(m.cur.frame)
}

// finishCur concludes the frame in service and reports its fate upward.
// The frame is recycled here — its airtime (if any) is over and retries
// are finished, so the MAC holds the last reference.
func (m *Mac) finishCur(ok bool) {
	f := m.cur.frame
	payload, dst := f.Payload, f.Dst
	m.releaseFrame(f)
	m.cur = nil
	m.cw = m.cfg.CWMin
	m.setState(accIdle)
	m.le.setQueueLen(m.QueueLen())
	if m.upper != nil {
		m.upper.MacTxDone(payload, dst, ok)
	}
	m.next()
}

// onTimeout ends a failed exchange — no ACK for the data frame, or no
// CTS for the RTS: the frame is retried after a wider backoff, or dropped
// at the retry limit.
func (m *Mac) onTimeout() {
	m.arfFailure(m.cur.frame.Dst)
	m.cur.retries++
	m.Ctr.Retries++
	if m.cur.retries >= m.cfg.RetryLimit {
		m.Ctr.DroppedRetryLimit++
		m.finishCur(false)
		return
	}
	// Binary exponential backoff: widen the window and contend again.
	m.cw = 2*m.cw + 1
	if m.cw > m.cfg.CWMax {
		m.cw = m.cfg.CWMax
	}
	m.drawBackoff()
	m.startAccess()
}

// scheduleAck queues the SIFS-delayed acknowledgement for a received
// unicast frame. ACKs bypass the interface queue and channel contention.
func (m *Mac) scheduleAck(dst pkt.NodeID) {
	m.pendingAckTx = true
	// If we were mid-contention, the countdown events may fire during the
	// ACK transmission; transmitCur's guard postpones them safely.
	m.sifs.Call(m, opSendAck, uint32(dst))
}

// sendResponse puts the SIFS-deferred response to dst on the air: an ACK,
// or a CTS announcing nav. One scheduled before a crash is dropped, and so
// is one that finds the radio sending — impossible under half-duplex
// rules, but the run goes on: the sender retries, and contention resumes.
func (m *Mac) sendResponse(typ FrameType, dst pkt.NodeID, nav des.Time) {
	if m.down {
		return
	}
	if m.radio.Transmitting() {
		m.pendingAckTx = false
		m.resume()
		return
	}
	f := m.newFrame()
	f.Type, f.Src, f.Dst, f.Dur = typ, m.id, dst, nav
	dur := m.cfg.AckDuration()
	if typ == CTSFrame {
		f.Bytes, dur = m.cfg.CTSBytes, m.cfg.CTSDuration()
		m.Ctr.TxCTS++
	} else {
		f.Bytes = m.cfg.AckBytes
		m.Ctr.TxAck++
	}
	m.transmitControl(f, dur)
}

// transmitControl puts control frame f on the air for dur (see ctrlAir).
func (m *Mac) transmitControl(f *Frame, dur des.Time) {
	m.ctrlAir = f
	m.radio.Transmit(f, f.Bytes, dur)
}

// Preallocate sizes the duplicate filter for a network of n nodes, so the
// hot path never grows it incrementally.
func (m *Mac) Preallocate(n int) { m.growPeers(n - 1) }

// growPeers extends the duplicate filter to cover id.
func (m *Mac) growPeers(id int) {
	for len(m.lastSeq) <= id {
		m.lastSeq = append(m.lastSeq, -1)
	}
}

// isDup reports (and records) whether a unicast frame repeats the last
// sequence number seen from src — the signature of a retransmission whose
// ACK was lost.
func (m *Mac) isDup(src pkt.NodeID, seq uint16) bool {
	i := int(src)
	if i >= len(m.lastSeq) {
		m.growPeers(i)
	}
	if m.lastSeq[i] == int32(seq) {
		return true
	}
	m.lastSeq[i] = int32(seq)
	return false
}

// --- radio.Listener ---

// RadioCarrier implements radio.Listener.
func (m *Mac) RadioCarrier(busy bool) {
	if m.down {
		return
	}
	if busy {
		m.freezeContention()
		return
	}
	if m.state == accWaitIdle && !m.channelBusy() {
		m.beginDefer()
	}
}

// RadioTxDone implements radio.Listener. The MAC acts only on the
// completion of a frame it put on the air for the frame in service (its
// data frame, or its RTS while it waits for that to end) or of its own
// control response. The completion of a frame a crash took out of
// service — the orphaned data frame, or an RTS sent before the crash —
// is released and nothing more, whatever a recovery has put in service
// since; a frame that was postponed while the radio sent it resumes
// contention.
func (m *Mac) RadioTxDone(payload any) {
	f, ok := payload.(*Frame)
	if !ok {
		panic(fmt.Sprintf("mac %v: foreign payload %T on radio", m.id, payload))
	}
	m.le.settle() // in case a crash truncated this frame
	if f == m.orphan {
		// No retransmission can reference it again.
		m.orphan = nil
		m.discard(f)
		m.resume()
		return
	}
	typ, dst := f.Type, f.Dst
	if typ != DataFrame {
		// A control frame is off the air either way.
		m.ctrlAir = nil
		m.releaseFrame(f)
	}
	if m.down {
		return
	}
	switch typ {
	case AckFrame, CTSFrame:
		// Our control response is done; resume any postponed contention.
		m.pendingAckTx = false
		m.resume()
		return
	case RTSFrame:
		if m.state != accTxRts {
			m.resume() // an RTS sent before a crash, released above
			return
		}
		m.setState(accWaitCts)
		m.ctsEv = m.ctsWait.Call(m, opTimeout, 0)
		return
	}
	if dst == pkt.Broadcast {
		m.finishCur(true)
		return
	}
	m.setState(accWaitAck)
	m.ackEv = m.ackWait.Call(m, opTimeout, 0)
}

// resume restarts the contention of the frame in service if it was
// postponed while the radio was sending (a control response, or a frame
// sent before a crash): nothing else resumes it once the radio is free.
func (m *Mac) resume() {
	if !m.down && m.cur != nil && m.state == accPostponed {
		m.startAccess()
	}
}

// RadioReceive implements radio.Listener.
func (m *Mac) RadioReceive(payload any, bytes int, ok bool) {
	if m.down {
		return
	}
	if !ok {
		m.Ctr.RxCorrupted++
		m.useEIFS = true
		return
	}
	f := payload.(*Frame)
	switch f.Type {
	case AckFrame:
		if f.Dst == m.id && m.state == accWaitAck && m.cur != nil && f.Src == m.cur.frame.Dst {
			m.ackEv.Cancel()
			m.arfSuccess(f.Src)
			m.finishCur(true)
		}
	case RTSFrame:
		if f.Dst != m.id {
			m.setNAV(f.Dur)
			return
		}
		// Answer unless our NAV says the medium is reserved for someone
		// else's exchange (802.11 §9.2.5.7). The physical carrier flag is
		// not consulted: at this instant it still reflects the RTS frame
		// itself, whose airtime just ended.
		if m.radio.Transmitting() || m.sim.Now() < m.navUntil {
			return
		}
		m.pendingAckTx = true
		m.ctsNav = f.Dur - m.cfg.SIFS - m.cfg.CTSDuration()
		m.sifs.Call(m, opSendCts, uint32(f.Src))
	case CTSFrame:
		if f.Dst != m.id {
			m.setNAV(f.Dur)
			return
		}
		if m.state == accWaitCts && m.cur != nil && f.Src == m.cur.frame.Dst {
			m.ctsEv.Cancel()
			m.setState(accTxData)
			m.sifs.Call(m, opSendData, 0)
		}
	case DataFrame:
		switch f.Dst {
		case pkt.Broadcast:
			m.Ctr.RxDelivered++
			if m.upper != nil {
				// Broadcast deliveries share the sender's packet
				// across every receiver instead of cloning per
				// receiver: broadcast kinds (RREQ, RERR, HELLO)
				// are read-only on arrival — any forward clones
				// first — so the shared body is never mutated.
				m.upper.MacReceive(f.Payload, f.Src)
			}
		case m.id:
			m.scheduleAck(f.Src)
			if m.isDup(f.Src, f.Seq) {
				m.Ctr.RxDuplicates++
				return
			}
			m.Ctr.RxDelivered++
			if m.upper != nil {
				m.upper.MacReceive(m.pool.Clone(f.Payload), f.Src)
			}
		default:
			// Overheard unicast for someone else: ignored (no
			// promiscuous mode in this model).
		}
	}
}
