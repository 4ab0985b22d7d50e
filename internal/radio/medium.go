package radio

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/fault"
	"clnlr/internal/geom"
	"clnlr/internal/recycle"
)

// Params are the per-radio RF parameters. The defaults (see DefaultParams)
// reproduce the classic 914 MHz WaveLAN configuration: 250 m receive range
// and 550 m carrier-sense range under two-ray propagation.
type Params struct {
	// TxPowerW is the transmit power in watts.
	TxPowerW float64
	// RxThreshW is the minimum power for a frame to be decodable.
	RxThreshW float64
	// CsThreshW is the carrier-sense threshold: aggregate in-band energy
	// at or above it makes the channel appear busy.
	CsThreshW float64
	// NoiseW is the thermal noise floor used in SINR computation.
	NoiseW float64
	// CaptureRatio is the minimum linear SINR for successful reception
	// (10 ≈ 10 dB, the ns-2 default CPThresh).
	CaptureRatio float64
}

// DefaultParams returns the WaveLAN-style parameter set.
func DefaultParams() Params {
	return Params{
		TxPowerW:     0.2818,    // 24.5 dBm
		RxThreshW:    3.652e-10, // 250 m under two-ray
		CsThreshW:    1.559e-11, // 550 m under two-ray
		NoiseW:       1e-13,
		CaptureRatio: 10,
	}
}

// Listener is the upward interface of a Radio: the PHY/MAC entity attached
// to it. All callbacks run on the simulation goroutine.
type Listener interface {
	// RadioReceive delivers a frame whose airtime finished at this node.
	// ok is false if the frame was corrupted by interference or by the
	// node transmitting during reception; corrupted frames matter to the
	// MAC (EIFS behaviour) even though their contents are unusable.
	RadioReceive(payload any, bytes int, ok bool)
	// RadioCarrier reports carrier-sense transitions (busy=true when
	// aggregate sensed energy crosses the CS threshold upward) to a
	// listener that has asked for them — every listener by default, see
	// Radio.WantCarrier. The node's own transmissions are not included —
	// the MAC already knows when it transmits.
	RadioCarrier(busy bool)
	// RadioTxDone fires when the node's own transmission ends.
	RadioTxDone(payload any)
}

// transmission is one frame in flight. Instances are pooled by the Medium:
// finish returns them to a free list, so steady-state transmissions do
// not allocate. End-of-airtime is a typed DES event addressed to the
// Medium carrying the source radio's ID — a radio has at most one
// transmission in flight, so the ID identifies it.
type transmission struct {
	src     int32 // source radio ID
	payload any
	bytes   int
	// snrScale scales the receiver's sensitivity and capture thresholds
	// for this frame: higher-rate modulations (snrScale > 1) need
	// proportionally more signal to decode, shrinking their range.
	snrScale float64
	// touched is the sender's audible set at the frame's start, aliased, not
	// copied: only the sender's next TransmitRated rewrites that storage,
	// and it cannot run before finish. skipped names the members down at the
	// start (ID-sorted, normally empty), which never got this frame's
	// energy; finish walks touched minus skipped to take the energy off.
	touched []heard
	skipped []int32
}

// opTxFinish is the Medium's only typed-event op: end of airtime for the
// transmission of the radio identified by the event's arg.
const opTxFinish int32 = 0

// arrival is the receiver-side state for the frame a radio is locked onto.
type arrival struct {
	t         *transmission
	power     float64
	corrupted bool
}

// rxState is the receiver-side record every arrival reads and writes
// (crash flag and carrier clock included), packed into one 64-byte cache
// line so an arrival costs one bounds check and one line. A pointer into
// Medium.rx must be re-taken after any listener callback (a callback may
// Attach, which can move the slice).
type rxState struct {
	energy   float64 // aggregate power of ongoing foreign arrivals
	csThresh float64 // rfp[id].CsThreshW, copied at Attach
	cur      arrival // frame being received; cur.t == nil if none
	// State clock (see StateTimes): at most one interval is open, begun at
	// since — transmit while txing, else busy-carrier while busy && !down.
	// rxAcc is the closed busy-carrier time, Medium.txAcc the closed transmit.
	since, rxAcc des.Time
	// nlive counts the ongoing foreign arrivals behind energy; its only
	// consumer is finish's clamp of energy to exactly 0 when the last one
	// leaves.
	nlive int32
	txing bool // own transmission in flight
	busy  bool // recorded carrier state (see CarrierBusy)
	down  bool // crashed (see SetDown)
	quiet bool // listener has opted out of RadioCarrier (see WantCarrier)
}

// heard is one receiver of one transmitter: the power it receives and
// refOK, the precomputed reference-rate decode test power >= RxThreshW of
// that receiver — bit-equal to the live comparison whenever snrScale == 1,
// because multiplying the threshold by exactly 1.0 is the identity on
// float64. 16 bytes, so the arrival loop reads one stream.
type heard struct {
	power float64
	rx    int32
	refOK bool
}

// audibleSet is one transmitter's receiver list: every radio that can hear
// it above the tracking floor, sorted by receiver ID (the order
// deterministic replay requires). The memo tier builds it lazily on first
// transmit and reuses it until Medium.audEpoch moves on (SetPos, Attach,
// Reset); fading models and the reference tier rebuild it into the same
// storage on every transmission. Crash state is
// deliberately NOT baked in — down radios stay members and are skipped
// live via rxState.down, so churn never forces an O(N²) rebuild storm.
type audibleSet struct {
	epoch uint64 // Medium.audEpoch the set was built at; 0 = never built
	build uint64 // Medium.audBuilds after the build that wrote heard
	heard []heard
}

// Radio is a node's attachment to the Medium. It is a thin handle: all
// dynamic state (position and the rxState record) lives in the
// Medium's dense per-ID slices so the receiver scan and the arrival loop
// walk contiguous arrays instead of pointer-chasing per-radio objects.
type Radio struct {
	m  *Medium
	id int
}

// SetPos moves the radio (mobility support). The new position applies to
// subsequent transmissions; frames already in flight keep the powers
// computed at their start — the standard packet-level approximation, exact
// for any realistic speed (a frame lasts ~2 ms; at 20 m/s that is 4 cm of
// motion). Moving invalidates every memoised audible set (the mover may
// appear in any of them); RxPowerBetween and InRange see it at once.
func (r *Radio) SetPos(p geom.Point) {
	m := r.m
	if p == m.pos[r.id] {
		return
	}
	m.pos[r.id] = p
	m.audEpoch++
}

// Medium is the shared channel connecting all radios in one simulation.
//
// The transmit hot path is memoised: each transmitter lazily precomputes
// its audible set — the flat, ID-sorted list of (receiver, power,
// reference-rate decode flag) above the tracking floor
// — so TransmitRated is one tight loop over contiguous 16-byte records
// with no per-receiver propagation calls. Audible sets are invalidated by
// an epoch counter bumped on any position change, attach or reset.
// Hot per-radio dynamic state lives in dense per-ID slices on the Medium —
// everything an arrival touches in the one rxState record — so the arrival
// loop never dereferences a *Radio.
//
// One slower tier is retained as the validation oracle, bit-identical by
// construction and by test: SetReference(true) rebuilds the audible set
// from the same scan of every radio on every transmission. It differs only
// in when the set is obtained, never in the arrival loop that walks it.
type Medium struct {
	sim  *des.Sim
	prop Propagation
	// minTrackW: arrivals weaker than this are ignored entirely (they are
	// far below both noise and CS thresholds).
	minTrackW float64

	reference bool // exhaustive slow path for validation
	static    bool // prop is time-invariant → audible sets memoisable

	// Dense per-radio state, indexed by radio ID; one entry per attached
	// radio (a Radio is only the handle {medium, ID}, which the Medium does
	// not keep).
	pos       []geom.Point    // current position: the row Propagation reads
	rfp       []Params        // immutable RF parameters, copied at Attach
	rx        []rxState       // receiver record (see rxState)
	txAcc     []des.Time      // closed transmit time (see rxState.since)
	txOf      []*transmission // own transmission in flight (nil otherwise)
	listeners []Listener
	aud       []audibleSet

	// audEpoch invalidates every memoised audible set at once: a set is
	// valid iff its epoch matches. Bumped by SetPos, Attach and Reset.
	// Crash/recover does not bump it — down filtering is done live
	// against rxState.down.
	audEpoch uint64
	// audBuilds numbers every buildAudible call, of either tier, so the
	// auditor can tell a set it already checked from a rebuilt one.
	audBuilds uint64
	// audRebuilds counts the memo tier's audible-set (re)builds — a
	// diagnostic for tests and profiling, never folded into
	// golden-compared outputs (per-transmission rebuilds count none).
	audRebuilds uint64
	// start is when the state clocks began: creation or the last Reset.
	start des.Time

	// row is powerRow's scratch, kept so a rebuild allocates nothing.
	row []float64

	// AuditCoherence scratch (per-receiver expected arrival count and
	// energy), kept so an audit tick allocates nothing, and per radio the
	// build stamp of its audible set the audit last checked.
	auditLive  []int32
	auditSum   []float64
	auditBuild []uint64

	txPool     recycle.List[*transmission]
	txInFlight int
	// txInFlightHW is the peak concurrent-transmission count of the run —
	// deterministic (a pure function of the event sequence), so it is safe
	// to fold into golden metrics.
	txInFlightHW int

	// impair is the per-link burst-loss process applied, while impaired,
	// to otherwise-successful deliveries (fault injection). It is evaluated
	// identically on the memoised and reference paths. The model's per-link
	// storage outlives Reset and unimpaired runs.
	impair   fault.LinkModel
	impaired bool

	// Counters for validation and benchmarks.
	Transmissions uint64
	Deliveries    uint64
	Corruptions   uint64
	ImpairDrops   uint64
}

// NewMedium creates an empty channel using the given propagation model.
func NewMedium(sim *des.Sim, prop Propagation) *Medium {
	return &Medium{
		sim:       sim,
		prop:      prop,
		start:     sim.Now(),
		minTrackW: 1e-14,
		static:    prop.TimeInvariant(),
		audEpoch:  1, // so a zero-valued audibleSet is never valid
	}
}

// SetReference toggles the exhaustive reference transmit path (full O(N)
// receiver scan on every transmission, nothing memoised). It exists so
// tests can prove the memoised path reproduces reference results
// bit-for-bit; it is not meant for production runs. Memoisation only ever
// engages for time-invariant propagation models; fading models always
// rebuild.
func (m *Medium) SetReference(on bool) { m.reference = on }

// AudibleRebuilds returns how many audible sets the memo tier has
// (re)built — a memoisation-effectiveness diagnostic (steady-state static
// runs build each transmitter's set once; every SetPos/Attach/Reset
// invalidates all of them).
func (m *Medium) AudibleRebuilds() uint64 { return m.audRebuilds }

// SetImpairment arms (or, when p is disabled, disarms) the per-link
// Gilbert–Elliott burst-loss process, keyed by the run seed. Call after
// every radio is attached and after each Reset, which disarms it; the model
// is re-parameterised in place, so warm engine reuse does not allocate.
func (m *Medium) SetImpairment(p fault.LinkParams, seed uint64) {
	m.impaired = p.Enabled()
	if m.impaired {
		m.impair.Reset(p, seed, len(m.pos))
	}
}

// Reset prepares the medium for a fresh run under a (possibly different)
// propagation model while keeping the attached radios, the transmission
// pool and the audible-set storage allocated. positions re-places the
// radios and must cover exactly the attached set; listeners (and their
// carrier opt-outs), parameters and dense IDs survive. After Reset the
// medium behaves bit-identically to a freshly built one: every audible set
// is invalidated and the state clocks and validation counters restart. The transmissions the last run left on the air, whose
// airtime ends the reset kernel discarded, go back to the pool.
func (m *Medium) Reset(prop Propagation, positions []geom.Point) {
	if len(positions) != len(m.pos) {
		panic(fmt.Sprintf("radio: Reset with %d positions for %d radios",
			len(positions), len(m.pos)))
	}
	for _, t := range m.txOf {
		if t != nil {
			m.releaseTransmission(t)
		}
	}
	m.prop = prop
	m.static = prop.TimeInvariant()
	m.audEpoch++
	m.impaired = false // re-armed per run via SetImpairment
	m.Transmissions, m.Deliveries, m.Corruptions, m.ImpairDrops = 0, 0, 0, 0
	m.txInFlight, m.txInFlightHW = 0, 0
	m.audRebuilds = 0
	m.start = m.sim.Now()
	copy(m.pos, positions)
	for i := range m.pos {
		m.rx[i] = rxState{csThresh: m.rfp[i].CsThreshW, quiet: m.rx[i].quiet}
		m.txAcc[i] = 0
		m.txOf[i] = nil
	}
}

// Attach adds a radio at pos and returns it. The listener must be set
// before the first transmission via SetListener (two-phase because the MAC
// needs the radio and vice versa).
func (m *Medium) Attach(pos geom.Point, params Params) *Radio {
	r := &Radio{m: m, id: len(m.pos)}
	m.pos = append(m.pos, pos)
	m.rfp = append(m.rfp, params)
	m.rx = append(m.rx, rxState{csThresh: params.CsThreshW})
	m.txAcc = append(m.txAcc, 0)
	m.txOf = append(m.txOf, nil)
	m.listeners = append(m.listeners, nil)
	m.aud = append(m.aud, audibleSet{})
	m.audEpoch++ // existing sets predate the newcomer
	return r
}

// SetListener installs the upward callback interface.
func (r *Radio) SetListener(l Listener) { r.m.listeners[r.id] = l }

// powerRow returns the power every radio (tx itself included) receives
// from a transmission by radio tx starting now, indexed by radio ID: one
// Propagation call over the dense positions into the Medium's scratch row,
// which the next call overwrites.
func (m *Medium) powerRow(tx int) []float64 {
	if cap(m.row) < len(m.pos) {
		m.row = make([]float64, len(m.pos))
	}
	row := m.row[:len(m.pos)]
	m.prop.RxPowers(m.rfp[tx].TxPowerW, m.pos[tx], m.pos, m.sim.Now(), row)
	return row
}

// buildAudible recomputes one transmitter's audible set: every other
// radio receiving at or above the tracking floor, in
// ascending ID order. It is the only receiver scan of both tiers: the
// memo tier calls it when an epoch bump has invalidated the set, fading
// models and the reference tier on every transmission. Down radios are
// included — crash state is filtered live by the arrival loop — so churn
// does not invalidate sets.
func (m *Medium) buildAudible(id int, a *audibleSet) {
	hs := a.heard[:0]
	for rid, p := range m.powerRow(id) {
		if rid == id || p < m.minTrackW {
			continue
		}
		hs = append(hs, heard{power: p, rx: int32(rid), refOK: p >= m.rfp[rid].RxThreshW})
	}
	a.heard = hs
	a.epoch = m.audEpoch
	m.audBuilds++
	a.build = m.audBuilds
}

// newTransmission takes a pooled transmission or allocates the pool's
// next one.
func (m *Medium) newTransmission() *transmission {
	if t, ok := m.txPool.Get(); ok {
		return t
	}
	m.txPool.Made()
	return &transmission{}
}

// releaseTransmission returns t to the pool. Callers must guarantee no
// radio still references it (finish clears every arrival first).
func (m *Medium) releaseTransmission(t *transmission) {
	t.payload = nil
	t.touched = nil
	t.skipped = t.skipped[:0]
	m.txPool.Put(t)
}

// TxInFlightHW returns the run's peak number of concurrent transmissions
// — the sizing signal for the transmission pool, and deterministic across
// fast/reference paths and warm/cold engines.
func (m *Medium) TxInFlightHW() int { return m.txInFlightHW }

// HandleEvent dispatches the Medium's typed DES events.
func (m *Medium) HandleEvent(op int32, arg uint32) {
	if op != opTxFinish {
		panic(fmt.Sprintf("radio: unknown event op %d", op))
	}
	m.finish(m.txOf[arg])
}

// RxPowerBetween exposes the propagation computation for topology
// construction (connectivity graphs use the same model as the channel).
func (m *Medium) RxPowerBetween(from, to int) float64 {
	return RxPower(m.prop, m.rfp[from].TxPowerW, m.pos[from], m.pos[to], m.sim.Now())
}

// InRange reports whether a frame from `from` is decodable at `to` in the
// absence of interference.
func (m *Medium) InRange(from, to int) bool {
	return m.RxPowerBetween(from, to) >= m.rfp[to].RxThreshW
}

// Transmitting reports whether the radio is currently sending.
func (r *Radio) Transmitting() bool { return r.m.rx[r.id].txing }

// Airing returns the payload of the radio's own transmission on the air,
// nil when it is not transmitting. A frame truncated by SetDown(true)
// stays on the air until its airtime ends.
func (r *Radio) Airing() any {
	if t := r.m.txOf[r.id]; t != nil {
		return t.payload
	}
	return nil
}

// Down reports whether the radio is crashed (see SetDown).
func (r *Radio) Down() bool { return r.m.rx[r.id].down }

// SetDown crashes (true) or recovers (false) the radio.
//
// Crashing abandons any reception in progress and truncates the radio's
// own transmission: receivers locked onto it see a corrupted frame (the
// remaining airtime carries junk — the energy stays on the air so carrier
// sense and interference are unaffected, exactly what a dying transmitter
// radiates). While down the radio is skipped by every new transmission
// and surfaces no listener callbacks. Crash state is consulted live from
// the receiver record, so SetDown never invalidates audible sets.
//
// Recovering re-admits the radio and pushes a busy carrier to a listener
// that wants edges, which the caller must have reset first (a power-cycled
// MAC starts from idle and must learn that the channel is busy).
func (r *Radio) SetDown(down bool) {
	m := r.m
	id := r.id
	s := &m.rx[id]
	if s.down == down {
		return
	}
	s.down = down
	if s.busy && !s.txing {
		// The busy-carrier interval closes or reopens. (An own truncated
		// frame still on the air keeps its transmit interval instead.)
		if now := m.sim.Now(); down {
			s.rxAcc += now - s.since
		} else {
			s.since = now
		}
	}
	if down {
		s.cur = arrival{}
		if t := m.txOf[id]; t != nil {
			// t.skipped needs no merge: those radios never locked onto t.
			for _, h := range t.touched {
				cur := &m.rx[h.rx].cur
				if cur.t == t && !cur.corrupted {
					cur.corrupted = true
					m.Corruptions++
				}
			}
		}
		return
	}
	if s.busy && !s.quiet && m.listeners[id] != nil {
		m.listeners[id].RadioCarrier(true)
	}
}

// CarrierBusy reports the recorded carrier-sense state (excluding own tx;
// a down radio senses nothing): what the last RadioCarrier edge said or
// would have said — not energy >= threshold, because finish delivers a
// frame before it re-tests the carrier, so inside RadioReceive the frame
// that just ended still counts, as it does for a listener tracking edges.
func (r *Radio) CarrierBusy() bool {
	s := &r.m.rx[r.id]
	return s.busy && !s.down
}

// WantCarrier opts the radio's listener out of (false) or back into (true,
// the default) RadioCarrier callbacks; CarrierBusy and StateTimes stay
// exact either way. The choice survives SetListener and Medium.Reset.
func (r *Radio) WantCarrier(want bool) { r.m.rx[r.id].quiet = !want }

// StateTimes returns how long the radio has spent transmitting, sensing a
// busy carrier while up and not transmitting (rx — overhearing included)
// and otherwise (idle — downtime included) since the medium was created
// or last Reset: exact nanoseconds, kept where the edges happen.
func (r *Radio) StateTimes() (idle, rx, tx des.Time) { return r.m.stateTimes(r.id) }

// stateTimes is StateTimes by radio ID (the audit holds no handles).
func (m *Medium) stateTimes(id int) (idle, rx, tx des.Time) {
	s := &m.rx[id]
	now := m.sim.Now()
	rx, tx = s.rxAcc, m.txAcc[id]
	switch {
	case s.txing:
		tx += now - s.since
	case s.busy && !s.down:
		rx += now - s.since
	}
	return now - m.start - rx - tx, rx, tx
}

// Transmit puts a frame of the given size on the air for duration at the
// radio's reference modulation. The caller (MAC) is responsible for
// medium-access rules; the radio model faithfully transmits even into a
// busy channel (that is how collisions happen). Transmitting while already
// transmitting is a programming error.
func (r *Radio) Transmit(payload any, bytes int, duration des.Time) {
	r.TransmitRated(payload, bytes, duration, 1)
}

// TransmitRated is Transmit with an explicit SINR scale for multi-rate
// PHYs: a frame sent at a modulation needing snrScale× the reference SINR
// decodes over a correspondingly shorter range and is more fragile to
// interference. snrScale 1 is the reference rate.
func (r *Radio) TransmitRated(payload any, bytes int, duration des.Time, snrScale float64) {
	m := r.m
	id := r.id
	if m.rx[id].txing {
		panic(fmt.Sprintf("radio %d: Transmit while already transmitting", id))
	}
	if duration <= 0 {
		panic("radio: non-positive transmission duration")
	}
	if snrScale < 1 {
		snrScale = 1
	}
	self := &m.rx[id]
	if self.down {
		panic(fmt.Sprintf("radio %d: Transmit while down", id))
	}
	m.Transmissions++
	now := m.sim.Now()
	if self.busy {
		self.rxAcc += now - self.since
	}
	self.since = now // the transmit interval opens
	self.txing = true
	// Transmitting corrupts any reception in progress (half-duplex).
	if self.cur.t != nil {
		self.cur.corrupted = true
	}

	t := m.newTransmission()
	t.src = int32(id)
	t.payload = payload
	t.bytes = bytes
	t.snrScale = snrScale
	m.txOf[id] = t

	// The memo tier reuses the sender's audible set while its epoch holds;
	// a fading model or the reference tier rebuilds it for this
	// transmission. A callback below may Attach or bump the epoch: hs —
	// which t.touched aliases until finish — keeps the set as of this
	// frame's start, and no callback can rebuild it (this radio cannot
	// transmit again before finish).
	a := &m.aud[id]
	if !m.static || m.reference {
		m.buildAudible(id, a)
	} else if a.epoch != m.audEpoch {
		m.audRebuilds++
		m.buildAudible(id, a)
	}
	hs := a.heard
	t.touched = hs
	rx := m.rx
	for _, h := range hs {
		s := &rx[h.rx]
		if s.down {
			t.skipped = append(t.skipped, h.rx)
			continue
		}
		s.nlive++
		e := s.energy + h.power
		s.energy = e
		// Over 96 % of arrivals on a dense grid stop here: energy for the
		// carrier test only. An idle receiver can lock on only if refOK
		// (snrScale >= 1, so p < RxThreshW implies p < RxThreshW*snrScale),
		// and everything arriving during own tx is just energy.
		if (h.refOK || s.cur.t != nil) && !s.txing {
			m.contend(s, &m.rfp[h.rx], t, h.power, e)
		}
		if b := e >= s.csThresh; b != s.busy {
			s.flip(b, now)
			if !s.quiet {
				m.carrierFlip(int(h.rx), b)
				rx = m.rx // the callback may have moved it
			}
		}
	}
	m.txInFlight++
	if m.txInFlight > m.txInFlightHW {
		m.txInFlightHW = m.txInFlight
	}
	m.sim.Lane(duration).Call(m, opTxFinish, uint32(id))
}

// contend is the outlined decision half of an arrival of power p from t at
// a receiver that is not transmitting and is either mid-reception or idle
// within reference-rate decode range; e is its energy including p. It
// makes no listener callback.
func (m *Medium) contend(s *rxState, prm *Params, t *transmission, p, e float64) {
	cur := &s.cur
	if cur.t == nil {
		// Idle receiver: lock on if decodable with adequate SINR against
		// the interference present at the preamble. Higher-rate frames
		// (snrScale > 1) need proportionally more signal.
		if t.snrScale == 1 || p >= prm.RxThreshW*t.snrScale {
			interf := e - p
			if p >= prm.CaptureRatio*t.snrScale*(prm.NoiseW+interf) {
				*cur = arrival{t: t, power: p}
			}
		}
		return
	}
	// Mid-reception: the new frame is interference; if it destroys the
	// SINR of the frame in progress, that frame is lost (latched — a
	// momentary collision corrupts the whole frame).
	interf := e - cur.power
	if cur.power < prm.CaptureRatio*cur.t.snrScale*(prm.NoiseW+interf) {
		cur.corrupted = true
		m.Corruptions++
	}
}

// finish ends transmission t: takes its energy off every touched radio,
// hands the frame up where it was the locked one, releases the sender and
// recycles t. The sender's carrier state needs no refresh here: arrivals
// keep busy in step with energy during own transmissions too.
func (m *Medium) finish(t *transmission) {
	now := m.sim.Now()
	skipped := t.skipped
	rx := m.rx
	for _, h := range t.touched {
		if len(skipped) > 0 && skipped[0] == h.rx {
			skipped = skipped[1:]
			continue
		}
		s := &rx[h.rx]
		s.nlive--
		e := 0.0 // last arrival gone: clamp accumulated floating-point drift
		if s.nlive != 0 {
			e = s.energy - h.power
			if e < 0 {
				e = 0
			}
		}
		s.energy = e
		if s.cur.t == t {
			m.deliver(int(h.rx), t)
			rx = m.rx // the callback may have moved it or changed energy
			s = &rx[h.rx]
			e = s.energy
		}
		if b := e >= s.csThresh; b != s.busy {
			s.flip(b, now)
			if !s.quiet {
				m.carrierFlip(int(h.rx), b)
				rx = m.rx
			}
		}
	}
	src := int(t.src)
	payload := t.payload
	m.releaseTransmission(t)
	m.txInFlight--
	s := &m.rx[src]
	m.txAcc[src] += now - s.since
	s.txing = false
	s.since = now // a busy-carrier interval the frame suspended reopens
	m.txOf[src] = nil
	m.listeners[src].RadioTxDone(payload)
}

// deliver hands the frame receiver rx was locked onto up to its listener
// at end of airtime: intact unless corrupted, overlapped by own
// transmission or dropped by the link impairment.
func (m *Medium) deliver(rx int, t *transmission) {
	s := &m.rx[rx]
	ok := !s.cur.corrupted && !s.txing
	s.cur = arrival{}
	if ok && m.impaired && !m.impair.Deliver(int(t.src), rx, m.sim.Now()) {
		ok = false
		m.ImpairDrops++
	}
	if ok {
		m.Deliveries++
	}
	m.listeners[rx].RadioReceive(t.payload, t.bytes, ok)
}

// flip records a carrier-sense transition, opening or closing the clock's
// busy-carrier interval unless an own frame or a crash has suspended it.
func (s *rxState) flip(b bool, now des.Time) {
	s.busy = b
	if s.txing || s.down {
		return
	}
	if b {
		s.since = now
	} else {
		s.rxAcc += now - s.since
	}
}

// carrierFlip is the "somebody is listening" half of a carrier-sense
// transition, reached only for a listener that wants edges.
func (m *Medium) carrierFlip(rx int, b bool) {
	if l := m.listeners[rx]; l != nil && !m.rx[rx].down {
		l.RadioCarrier(b)
	}
}
