// Package des implements the discrete-event simulation kernel that drives
// every experiment in this repository.
//
// The kernel is an event-list design over one indexed 4-ary min-heap
// (heap.go) ordered by (time, insertion sequence): the sequence number
// makes simultaneous events execute in FIFO order of scheduling, which —
// together with the deterministic RNG streams in internal/rng — makes whole
// runs bit-reproducible. Every queued node records its heap position, so
// Cancel takes the event out of the heap at once and the run loop never
// pops a dead one from it.
//
// Beside the heap sit fixed-delay lanes (lane.go): a caller that keeps
// scheduling with one constant delay — the MAC's DIFS, EIFS and SIFS, its
// ACK and CTS timeouts, the medium's airtime ends — takes a Lane handle
// once and schedules through it. Events pushed with one delay arrive in
// (time, sequence) order by construction, so a lane is a FIFO ring: push
// and cancel are O(1) (a cancelled slot is skipped when it reaches the
// head), and the run loop takes whichever of the heap top and the lane
// heads is least under the one comparator. Execution order, Executed,
// Pending and PendingHighWater are those of the heap alone. The fuzz
// harness (fuzz_test.go) checks heap and lanes against a pointer binary
// heap with lazy cancellation over arbitrary operation interleavings.
//
// Events come in two flavours. The closure form (Schedule/At) takes a
// func() and is right for cold call sites; a closure that captures state
// allocates at every call. The typed form (ScheduleCall/AtCall) carries a
// Handler interface plus a small inline payload (op, arg) in the pooled
// event node, so the per-packet hot paths — radio airtime completions, MAC
// timers, routing RREQ jitter — schedule without allocating at all.
//
// A train (AtTrain) is n typed events at a fixed period that occupies one
// slot of the event list. Its n sequence numbers are taken when it is
// scheduled, and the node that fires tick k is re-keyed in place to tick
// k+1's (time, sequence) before the handler runs, so the train interleaves
// with every other event exactly as n separate AtCalls would; only
// Pending and PendingHighWater see one event instead of the remaining
// ticks.
//
// Event storage is pooled: the node backing a fired or cancelled event
// returns to a per-Sim free list (a recycle.List) and is reused by later
// schedule calls, so the steady-state event churn of a long run does not
// allocate. The free list is bounded by the constant freeListCap so a
// bursty discovery storm cannot pin its peak pool for the rest of a warm
// sweep; nodes recycled beyond the bound are dropped to the garbage
// collector. Handles returned to callers are small values carrying a
// generation stamp, which makes operations on a handle whose event has
// already completed safe no-ops even after the node has been reused.
//
// A single Sim is strictly single-goroutine: handlers run inline from Run
// and may freely schedule or cancel further events. Parallelism in this
// project happens one level up (independent replications fan out across a
// worker pool in internal/sim), which keeps the hot event loop free of
// locks and atomic operations.
package des

import "clnlr/internal/recycle"

// Handler is the typed-event callback interface. A component implements it
// once and receives every typed event scheduled against it through
// ScheduleCall/AtCall; op discriminates the event kind within the handler
// and arg carries a small payload (a node ID, a pool slot) — both are
// opaque to the kernel. Typed events exist because a capturing closure
// allocates at every Schedule call site; the typed form stores its payload
// inline in the pooled event node instead.
type Handler interface {
	HandleEvent(op int32, arg uint32)
}

// eventNode is the pooled storage behind an Event handle. gen increments
// each time the node is recycled, invalidating outstanding handles; a node
// whose gen still matches a handle is queued at heap position idx, or on
// lane −idx−1 when idx is negative. A node carries either a closure
// (fn != nil) or a typed event (h != nil), never both, and belongs to one
// Sim for life. left counts a train's ticks after the queued one, each
// period later; it is 0 for every other event.
type eventNode struct {
	at     Time
	seq    uint64
	gen    uint64
	fn     func()
	h      Handler
	op     int32
	arg    uint32
	idx    int32
	left   uint32
	period Time
	sim    *Sim
}

// Event is a scheduled callback handle. It is a small value: copy it
// freely, store it in structs, compare it to the zero Event. The zero
// Event refers to no event; all its methods are safe no-ops. Handles may
// be retained after the event completes; once the event has fired or been
// cancelled the handle is stale — Cancel is a no-op and Fired reports
// true.
type Event struct {
	n   *eventNode
	gen uint64
	at  Time
}

// Valid reports whether the handle refers to an event (pending or
// completed) as opposed to the zero Event.
func (e Event) Valid() bool { return e.n != nil }

// Time returns the instant the event is (or was) scheduled for.
func (e Event) Time() Time { return e.at }

// Cancel prevents the event from firing: it leaves the heap (or its lane
// slot goes stale) and its node is recycled at once. Cancelling an event
// that has already fired or been cancelled — or the zero Event — is a
// no-op (a node is recycled before its handler runs, so an event
// cancelling itself is one too). A train's handle cancels every tick not
// yet fired.
// Cancel must only be called from the simulation goroutine.
func (e Event) Cancel() {
	if n := e.n; n != nil && n.gen == e.gen {
		if n.idx >= 0 {
			n.sim.remove(int(n.idx))
		} else {
			n.sim.cancelLane(int(-1 - n.idx))
		}
		n.sim.recycle(n)
	}
}

// Fired reports whether the event is no longer pending: its handler has
// run or it was cancelled (a stale handle cannot tell the two apart).
func (e Event) Fired() bool { return e.n != nil && e.n.gen != e.gen }

const maxTime = Time(int64(^uint64(0) >> 1))

// MaxTime is the largest representable instant — the horizon Run uses.
// Useful to callers that want RunUntil's clamping contract with an
// effectively unbounded horizon.
const MaxTime = maxTime

// freeListCap bounds the event-node free list. At ~64 bytes per node this
// pins at most ~1 MiB of recycled nodes per Sim, while still absorbing the
// steady-state churn of the largest benchmark scenarios without allocation.
const freeListCap = 16384

// Sim is a discrete-event simulation instance.
type Sim struct {
	now      Time
	seq      uint64
	stopped  bool
	executed uint64

	heap []entry // the event list: 4-ary min-heap on (at, seq), heap.go

	// Fixed-delay lanes beside the heap (lane.go): lanes and laneDelay are
	// the registry, laneLive the live events on all lanes, and the rest
	// the run loop's cached view of their heads.
	lanes     []lane
	laneDelay [maxLanes]Time
	laneLive  int
	laneMask  uint64
	laneMin   int
	laneScan  bool
	laneHead  [maxLanes]laneKey

	free      recycle.List[*eventNode] // recycled nodes, at most freeListCap
	freeDrops uint64                   // nodes dropped to GC since construction/Reset
	pendingHW int                      // peak Pending() since construction/Reset

	// pastSchedules counts At/AtCall targets that preceded the clock and
	// were clamped to "now" — a simulation-logic error the auditor reports.
	pastSchedules uint64

	// watch, when set, receives periodic progress publications from the
	// run loop and can abort a stalled run (watch.go). nil costs one
	// predictable branch per executed event.
	watch *Watch
}

// NewSim returns an empty simulation positioned at time zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Pending returns the number of events still queued, on the heap and the
// lanes. All of them are live: a cancelled event stops counting when it is
// cancelled. A train counts once, however many ticks it has left.
func (s *Sim) Pending() int { return len(s.heap) + s.laneLive }

// Executed returns the total number of events that have fired.
func (s *Sim) Executed() uint64 { return s.executed }

// PendingHighWater returns the peak Pending() observed since construction
// or the last Reset — the sizing signal for the event-node pool.
func (s *Sim) PendingHighWater() int { return s.pendingHW }

// PastSchedules returns how many events were scheduled at an absolute
// time before the clock (and clamped to "now") since construction or the
// last Reset. Schedule/ScheduleCall clamp negative delays before reaching
// the clock, so only genuinely past At/AtCall targets count — any nonzero
// value is a simulation-logic bug the auditor flags.
func (s *Sim) PastSchedules() uint64 { return s.pastSchedules }

// FreeListDrops returns how many recycled nodes were dropped to the
// garbage collector because the free list was at capacity, since
// construction or the last Reset.
func (s *Sim) FreeListDrops() uint64 { return s.freeDrops }

// Schedule queues fn to run delay after the current time and returns a
// handle that can cancel it. A negative delay is treated as zero (the
// event fires "now", after currently queued same-time events).
func (s *Sim) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At queues fn to run at absolute time t. Scheduling in the past is an
// error in simulation logic; the kernel clamps it to "now" to preserve the
// monotonic clock rather than corrupting the event order.
func (s *Sim) At(t Time, fn func()) Event {
	if fn == nil {
		panic("des: At called with nil handler")
	}
	n, t := s.alloc(t)
	n.fn = fn
	s.push(n)
	return Event{n: n, gen: n.gen, at: t}
}

// ScheduleCall queues a typed event for h to run delay after the current
// time — the zero-allocation form of Schedule for hot call sites. op and
// arg are passed through to h.HandleEvent verbatim. A negative delay is
// treated as zero.
func (s *Sim) ScheduleCall(delay Time, h Handler, op int32, arg uint32) Event {
	if delay < 0 {
		delay = 0
	}
	return s.AtCall(s.now+delay, h, op, arg)
}

// AtCall queues a typed event for h at absolute time t (clamped to "now"
// like At). Closure and typed events share one total order: a typed event
// scheduled after a closure for the same instant fires after it.
func (s *Sim) AtCall(t Time, h Handler, op int32, arg uint32) Event {
	if h == nil {
		panic("des: AtCall called with nil handler")
	}
	n, t := s.alloc(t)
	n.h, n.op, n.arg = h, op, arg
	s.push(n)
	return Event{n: n, gen: n.gen, at: t}
}

// AtTrain queues a train of n typed events for h at t, t+period, …,
// t+(n−1)·period, each passing op and arg through like AtCall. The train
// takes all n sequence numbers now, so it fires in exactly the order n
// AtCalls made here would, but it holds one slot of the event list: only
// its next tick is queued. The handle stays pending until the last tick
// fires; cancelling it drops every tick not yet fired, including from a
// tick's own handler. n ≤ 0 schedules nothing and returns the zero Event.
// A train may not start before the clock, and n must fit in a uint32.
func (s *Sim) AtTrain(t, period Time, n int, h Handler, op int32, arg uint32) Event {
	switch {
	case n <= 0:
		return Event{}
	case h == nil:
		panic("des: AtTrain called with nil handler")
	case t < s.now:
		panic("des: AtTrain starts before the clock")
	case period < 0:
		panic("des: AtTrain with negative period")
	case uint64(n) > 1<<32-1:
		panic("des: AtTrain with more than 2^32-1 ticks")
	}
	ev := s.AtCall(t, h, op, arg)
	ev.n.left, ev.n.period = uint32(n-1), period
	s.seq += uint64(n - 1)
	return ev
}

// advance re-keys the train at the top of the heap to its next tick — the
// time and sequence number an AtCall for that tick would have carried —
// and lets it settle.
func (s *Sim) advance(n *eventNode) {
	n.left--
	n.at += n.period
	n.seq++
	s.siftDown(0, entry{n.at, n.seq, n})
}

// alloc takes a pooled node (or allocates one), stamps it with the clamped
// time and the next sequence number, and returns both.
func (s *Sim) alloc(t Time) (*eventNode, Time) {
	if t < s.now {
		t = s.now
		s.pastSchedules++
	}
	n, ok := s.free.Get()
	if !ok {
		n = &eventNode{sim: s}
	}
	n.at, n.seq = t, s.seq
	s.seq++
	return n, t
}

// recycle invalidates outstanding handles to n and returns its storage to
// the free list (or drops it when the list is at capacity).
func (s *Sim) recycle(n *eventNode) {
	n.gen++
	n.fn = nil
	n.h = nil
	n.left = 0
	if !s.free.Put(n, freeListCap) {
		s.freeDrops++
	}
}

// Stop makes Run return after the currently executing handler finishes.
func (s *Sim) Stop() { s.stopped = true }

// Reset returns the simulation to time zero with an empty event queue,
// keeping the pooled event storage and queue capacity warm. Every pending
// event is discarded and every outstanding Event handle goes stale, so
// state machines holding handles across a Reset observe only safe no-ops.
// Reset is the foundation of warm replication reuse: a reset Sim schedules
// events with the same (time, sequence) ordering a fresh NewSim would, so
// reruns are bit-identical to cold runs.
func (s *Sim) Reset() {
	for i := range s.heap {
		s.recycle(s.heap[i].n)
		s.heap[i].n = nil
	}
	s.heap = s.heap[:0]
	s.resetLanes()
	s.now = 0
	s.seq = 0
	s.stopped = false
	s.executed = 0
	s.pendingHW = 0
	s.pastSchedules = 0
	s.freeDrops = 0
}

// Run executes events in order until the queue is empty or Stop is called.
// The clock stays at the last executed event's time (use RunUntil for the
// clamp-to-horizon contract).
func (s *Sim) Run() { s.run(maxTime, false) }

// RunUntil executes events in order until every event at or before horizon
// has fired, or Stop is called. The contract is uniform for every horizon,
// including MaxTime: unless Stop intervened, the clock reads exactly
// horizon on return — whether later events remain queued, the queue
// drained before the horizon, or it was empty to begin with. After Stop
// the clock stays at the stopping handler's time and no clamping occurs.
func (s *Sim) RunUntil(horizon Time) { s.run(horizon, true) }

// peek locates the earliest pending event — the head of lane i, or the
// heap top when i < 0 — and its time; ok is false when none is pending.
func (s *Sim) peek() (i int, at Time, ok bool) {
	i = s.nextLane()
	if i >= 0 && (len(s.heap) == 0 || s.laneHead[i].before(s.heap[0].at, s.heap[0].seq)) {
		return i, s.laneHead[i].at, true
	}
	if len(s.heap) > 0 {
		return -1, s.heap[0].at, true
	}
	return -1, 0, false
}

func (s *Sim) run(horizon Time, clamp bool) {
	s.stopped = false
	for !s.stopped {
		i, at, ok := s.peek()
		if !ok {
			break
		}
		if at > horizon {
			s.now = horizon
			return
		}
		s.now = at
		var next *eventNode
		if i >= 0 {
			next = s.popLane(i)
		} else {
			next = s.heap[0].n
		}
		fn, h, op, arg := next.fn, next.h, next.op, next.arg
		if next.left != 0 {
			s.advance(next)
		} else {
			if i < 0 {
				s.remove(0)
			}
			s.recycle(next)
		}
		if fn != nil {
			fn()
		} else {
			h.HandleEvent(op, arg)
		}
		s.executed++
		if s.watch != nil && s.executed&watchStrideMask == 0 {
			s.watch.publish(s.now, s.executed)
			if s.watch.aborted() {
				panic(&StallError{Now: s.now, Executed: s.executed})
			}
		}
	}
	if clamp && !s.stopped && s.now < horizon {
		s.now = horizon
	}
}
