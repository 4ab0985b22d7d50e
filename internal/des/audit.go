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
//     comparator.
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
	return nil
}
