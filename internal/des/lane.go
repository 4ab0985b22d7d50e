package des

import "math/bits"

// Fixed-delay lanes. Most of a DCF run's events are scheduled a constant
// delay after the clock: DIFS and EIFS defers, SIFS responses, ACK and CTS
// timeouts, airtime ends. Every event of a lane with delay d is keyed
// (now+d, seq) when it is pushed; the clock never goes back and the
// sequence only grows, so appending keeps a lane sorted under the heap's
// own (at, seq) comparator. A lane is therefore a FIFO ring: a push is an
// append, and the run loop compares the heap top with the lane heads.
// Cancel is O(1): the node is recycled at once, as for a heap event, and
// its slot — which remembers the node's generation — is skipped as stale
// when it reaches the head. Execution order, Executed, Pending and
// PendingHighWater are exactly what the heap alone would give.

// maxLanes bounds the lanes of one Sim. The first maxLanes distinct delays
// asked for get a lane for the Sim's life (Reset empties lanes, it does
// not forget them); a delay after that rides the heap through its handle.
const maxLanes = 64

// laneSlot is one queued lane event: the heap's entry for it, and the
// generation its node had when pushed (a mismatch marks a cancelled
// event).
type laneSlot struct {
	entry
	gen uint64
}

// laneKey is a lane head's cached key: an entry's (at, seq) without the
// node, so the run loop's view of the lanes holds no pointers.
type laneKey struct {
	at  Time
	seq uint64
}

// before orders k against the key (at, seq) as entry.before does.
func (k *laneKey) before(at Time, seq uint64) bool {
	return k.at < at || k.at == at && k.seq < seq
}

// lane is the FIFO ring of one delay (Sim.laneDelay). n counts the slots
// in use, stale ones included; live counts the pending events among them.
// A lane whose last live event is cancelled is emptied at once, so n > 0
// iff live > 0.
type lane struct {
	ring []laneSlot // length a power of two once used
	head int
	n    int
	live int
}

func (l *lane) slot(k int) *laneSlot { return &l.ring[(l.head+k)&(len(l.ring)-1)] }

// clear drops every slot, all of them stale or already taken out.
func (l *lane) clear() {
	for k := 0; k < l.n; k++ {
		l.slot(k).n = nil
	}
	l.head, l.n, l.live = 0, 0, 0
}

// Lane is a handle on the lane for one fixed delay, obtained once from
// Sim.Lane and kept: it stays valid across Reset. The zero Lane is not
// usable.
type Lane struct {
	s *Sim
	i int32 // lane index, or -1: every lane was taken and Call uses the heap
	d Time
}

// Lane returns the handle for delay d (a negative d is treated as zero),
// taking a new lane for a delay not seen before.
func (s *Sim) Lane(d Time) Lane {
	if d < 0 {
		d = 0
	}
	for i, x := range s.laneDelay[:len(s.lanes)] {
		if x == d {
			return Lane{s, int32(i), d}
		}
	}
	i := len(s.lanes)
	if i == maxLanes {
		return Lane{s, -1, d}
	}
	s.lanes = append(s.lanes, lane{})
	s.laneDelay[i] = d
	return Lane{s, int32(i), d}
}

// Call queues a typed event for h to run the lane's delay after the
// current time: ScheduleCall with that delay in every observable respect,
// pushed in O(1).
func (l Lane) Call(h Handler, op int32, arg uint32) Event {
	s := l.s
	if l.i < 0 {
		return s.AtCall(s.now+l.d, h, op, arg)
	}
	if h == nil {
		panic("des: Lane.Call with nil handler")
	}
	n := s.alloc(s.now + l.d)
	n.h, n.op, n.arg = h, op, arg
	s.pushLane(int(l.i), n)
	return Event{n: n, gen: n.gen}
}

// The run loop's view of the lanes: laneMask has bit i set iff lane i
// holds a live event, laneHead caches each lane's head key, and laneMin is
// the lane whose cached head key is least unless laneScan says a rescan is
// due. A cached head may be stale; its key is still a lower bound for the
// lane's first live event, which is all the minimum needs until the lane
// is chosen and the stale head dropped.

func (s *Sim) pushLane(i int, n *eventNode) {
	l := &s.lanes[i]
	if l.n == len(l.ring) {
		l.grow()
	}
	*l.slot(l.n) = laneSlot{entry{n.at, n.seq, n}, n.gen}
	l.n++
	l.live++
	s.laneLive++
	n.idx = int32(-1 - i)
	if l.n == 1 {
		s.laneHead[i] = laneKey{n.at, n.seq}
		switch {
		case s.laneMask == 0:
			s.laneMin, s.laneScan = i, false
		case !s.laneScan && n.at < s.laneHead[s.laneMin].at:
			// The newest seq loses every tie, so time alone decides.
			s.laneMin = i
		}
		s.laneMask |= 1 << uint(i)
	}
	if p := len(s.heap) + s.laneLive; p > s.pendingHW {
		s.pendingHW = p
	}
}

func (l *lane) grow() {
	ring := make([]laneSlot, max(16, 2*len(l.ring)))
	for k := 0; k < l.n; k++ {
		ring[k] = *l.slot(k)
	}
	l.ring, l.head = ring, 0
}

// cancelLane counts a live event of lane i out: cancelled (its slot is now
// stale) or taken by popLane.
func (s *Sim) cancelLane(i int) {
	l := &s.lanes[i]
	l.live--
	s.laneLive--
	if l.live == 0 {
		l.clear()
		s.laneMask &^= 1 << uint(i)
		if s.laneMin == i {
			s.laneScan = true
		}
	}
}

// nextLane returns the lane holding the earliest live lane event, with its
// head slot live, or -1 when no lane holds one.
func (s *Sim) nextLane() int {
	for s.laneMask != 0 {
		if s.laneScan {
			s.scanLanes()
		}
		i := s.laneMin
		l := &s.lanes[i]
		if h := l.slot(0); h.n.gen == h.gen {
			return i
		}
		s.dropHead(i) // stale: its event was cancelled
	}
	return -1
}

func (s *Sim) scanLanes() {
	m := s.laneMask
	best := bits.TrailingZeros64(m)
	k := s.laneHead[best]
	for m &= m - 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); s.laneHead[i].before(k.at, k.seq) {
			best, k = i, s.laneHead[i]
		}
	}
	s.laneMin, s.laneScan = best, false
}

// dropHead advances lane i past its head slot, which is stale or has been
// taken, and past the stale slots behind it, and marks the minimum for a
// rescan.
func (s *Sim) dropHead(i int) {
	l := &s.lanes[i]
	for {
		l.slot(0).n = nil
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		if l.n == 0 {
			break
		}
		if h := l.slot(0); h.n.gen == h.gen {
			s.laneHead[i] = laneKey{h.at, h.seq}
			break
		}
	}
	s.laneScan = true
}

// popLane takes the live head event of lane i for the run loop.
func (s *Sim) popLane(i int) *eventNode {
	l := &s.lanes[i]
	n := l.slot(0).n
	s.dropHead(i)
	s.cancelLane(i)
	return n
}

// resetLanes recycles every live lane event and empties the lanes.
func (s *Sim) resetLanes() {
	for i := range s.lanes {
		l := &s.lanes[i]
		for k := 0; k < l.n; k++ {
			if sl := l.slot(k); sl.n.gen == sl.gen {
				s.recycle(sl.n)
			}
		}
		l.clear()
	}
	s.laneLive, s.laneMask, s.laneMin, s.laneScan = 0, 0, 0, false
}
