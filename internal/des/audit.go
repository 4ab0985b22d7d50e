package des

import "fmt"

// AuditQueue cross-checks the event list's structural invariants against
// the live state — the DES leg of the runtime auditor (Scenario.Audit).
// For every queued entry it verifies that
//
//   - it does not precede the clock (alloc clamps inserts, and the clock
//     only advances to popped event times, so a violation means corrupted
//     ordering state);
//   - its inline key is its node's key (sifts compare the copies);
//   - its node records the position it sits at (Cancel removes there);
//   - it does not order before its parent under the (time, sequence)
//     comparator;
//
// and for every fixed-delay lane (lane.go) that
//
//   - its live slots are in (time, sequence) order, none precedes the
//     clock and none lies further ahead than the lane's delay;
//   - each live slot's key is its node's, and the node points back at
//     this lane (Cancel takes it out there);
//   - its live count is its number of non-stale slots, it holds slots
//     only while one is live, and the run loop's cached head key and
//     non-empty mask agree with it;
//   - the live counts sum to what Pending adds to the heap's length, and
//     the cached earliest lane, when not due for a rescan, is earliest.
//
// Read-only and allocation-free while nothing is wrong; returns the first
// violation found, or nil.
func (s *Sim) AuditQueue() error {
	for i := range s.heap {
		e := &s.heap[i]
		if e.at < s.now {
			return fmt.Errorf("des: audit: event at t=%v precedes clock t=%v", e.at, s.now)
		}
		if e.n.at != e.at || e.n.seq != e.seq {
			return fmt.Errorf("des: audit: heap entry %d keyed (t=%v seq=%d) but its node says (t=%v seq=%d)",
				i, e.at, e.seq, e.n.at, e.n.seq)
		}
		if int(e.n.idx) != i {
			return fmt.Errorf("des: audit: node at heap position %d records position %d", i, e.n.idx)
		}
		if i > 0 {
			if parent := &s.heap[(i-1)/heapArity]; e.before(parent) {
				return fmt.Errorf("des: audit: heap order violated at index %d (t=%v seq=%d under t=%v seq=%d)",
					i, e.at, e.seq, parent.at, parent.seq)
			}
		}
	}
	return s.auditLanes()
}

func (s *Sim) auditLanes() error {
	total := 0
	for i := range s.lanes {
		l, d := &s.lanes[i], s.laneDelay[i]
		live := 0
		var prev *laneSlot
		for k := 0; k < l.n; k++ {
			sl := l.slot(k)
			if sl.n.gen != sl.gen {
				continue
			}
			live++
			switch {
			case sl.at < s.now:
				return fmt.Errorf("des: audit: lane %v event at t=%v precedes clock t=%v", d, sl.at, s.now)
			case sl.at > s.now+d:
				return fmt.Errorf("des: audit: lane %v event at t=%v lies beyond now+delay t=%v", d, sl.at, s.now+d)
			case sl.n.at != sl.at || sl.n.seq != sl.seq:
				return fmt.Errorf("des: audit: lane %v slot %d keyed (t=%v seq=%d) but its node says (t=%v seq=%d)",
					d, k, sl.at, sl.seq, sl.n.at, sl.n.seq)
			case sl.n.idx != int32(-1-i):
				return fmt.Errorf("des: audit: node on lane %d records back-reference %d", i, sl.n.idx)
			case prev != nil && sl.before(&prev.entry):
				return fmt.Errorf("des: audit: lane %v order violated at slot %d (t=%v seq=%d after t=%v seq=%d)",
					d, k, sl.at, sl.seq, prev.at, prev.seq)
			}
			prev = sl
		}
		total += live
		if live != l.live {
			return fmt.Errorf("des: audit: lane %v counts %d live events but holds %d", d, l.live, live)
		}
		if (l.n > 0) != (live > 0) || (s.laneMask>>uint(i)&1 == 1) != (live > 0) {
			return fmt.Errorf("des: audit: lane %v holds %d slots, %d live, mask bit %d", d, l.n, live, s.laneMask>>uint(i)&1)
		}
		if l.n == 0 {
			continue
		}
		if h := l.slot(0); s.laneHead[i].at != h.at || s.laneHead[i].seq != h.seq {
			return fmt.Errorf("des: audit: lane %v head cached as (t=%v seq=%d) but is (t=%v seq=%d)",
				d, s.laneHead[i].at, s.laneHead[i].seq, h.at, h.seq)
		}
	}
	if total != s.laneLive {
		return fmt.Errorf("des: audit: lanes hold %d live events but Pending counts %d beside the heap", total, s.laneLive)
	}
	if s.laneMask != 0 && !s.laneScan {
		if s.laneMask>>uint(s.laneMin)&1 == 0 {
			return fmt.Errorf("des: audit: cached earliest lane %v is empty", s.laneDelay[s.laneMin])
		}
		m := &s.laneHead[s.laneMin]
		for i := range s.lanes {
			if h := &s.laneHead[i]; s.laneMask>>uint(i)&1 == 1 && h.before(m.at, m.seq) {
				return fmt.Errorf("des: audit: cached earliest lane %v (t=%v) is behind lane %v (t=%v)",
					s.laneDelay[s.laneMin], m.at, s.laneDelay[i], h.at)
			}
		}
	}
	return nil
}
