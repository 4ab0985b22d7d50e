package des

import "fmt"

// AuditQueue cross-checks the event list's structural invariants against
// the live state — the DES leg of the runtime auditor (Scenario.Audit).
// It verifies, for whichever event list is active:
//
//   - no queued event precedes the clock (alloc clamps inserts, and the
//     clock only advances to popped event times, so a violation means
//     corrupted ordering state);
//   - calendar accounting: count equals the events actually filed across
//     buckets and overflow;
//   - calendar placement: every bucketed event indexes to its bucket,
//     every overflow event lies at or past the window end, and every
//     bucket before the cursor is empty;
//   - heap order: each bucket, the overflow tier, and the reference heap
//     satisfy the heap property under the shared (time, sequence)
//     comparator.
//
// Read-only; returns the first violation found, or nil.
func (s *Sim) AuditQueue() error {
	if s.reference {
		return auditHeap("reference heap", -1, s.heap, s.now)
	}
	return s.auditCalendar()
}

func (s *Sim) auditCalendar() error {
	q := &s.cal
	if q.width == 0 {
		// Never initialised: nothing may be queued.
		if q.count != 0 || len(q.overflow) != 0 {
			return fmt.Errorf("des: audit: uninitialised calendar holds %d events", q.count)
		}
		return nil
	}
	filed := len(q.overflow)
	for i, b := range q.buckets {
		filed += len(b)
		if i < q.cur && len(b) > 0 {
			return fmt.Errorf("des: audit: bucket %d before cursor %d is non-empty", i, q.cur)
		}
		for _, n := range b {
			if idx := q.bucketIdx(n.at); idx != int64(i) {
				return fmt.Errorf("des: audit: event at t=%v filed in bucket %d, indexes to %d", n.at, i, idx)
			}
		}
		if err := auditHeap("bucket", i, b, s.now); err != nil {
			return err
		}
	}
	for _, n := range q.overflow {
		if idx := q.bucketIdx(n.at); idx < int64(len(q.buckets)) {
			return fmt.Errorf("des: audit: overflow event at t=%v indexes to bucket %d inside the window", n.at, idx)
		}
	}
	if err := auditHeap("overflow", -1, q.overflow, s.now); err != nil {
		return err
	}
	if filed != q.count {
		return fmt.Errorf("des: audit: calendar count %d but %d events filed", q.count, filed)
	}
	return nil
}

// auditHeap checks the heap property under eventLess and that no event
// precedes the clock. The heap is named "where", or "where idx" when
// idx >= 0 — formatted only on the error returns, so a clean audit of
// every calendar bucket allocates nothing.
func auditHeap(where string, idx int, h []*eventNode, now Time) error {
	for i, n := range h {
		if n.at < now {
			return fmt.Errorf("des: audit: %s event at t=%v precedes clock t=%v", heapLabel(where, idx), n.at, now)
		}
		if i > 0 {
			parent := h[(i-1)/2]
			if eventLess(n, parent) {
				return fmt.Errorf("des: audit: %s heap order violated at index %d (t=%v seq=%d under t=%v seq=%d)",
					heapLabel(where, idx), i, n.at, n.seq, parent.at, parent.seq)
			}
		}
	}
	return nil
}

func heapLabel(where string, idx int) string {
	if idx < 0 {
		return where
	}
	return fmt.Sprintf("%s %d", where, idx)
}
