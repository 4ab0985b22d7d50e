package des

// The event list is one 4-ary min-heap of value entries. The ordering key
// (at, seq) sits inline in the entry, so a sift compares without touching
// an event node; it writes the node only to record the entry's new
// position, which is what lets Cancel take an event out in O(log n)
// instead of leaving it to be popped. Four children per node halve the
// depth of a binary heap for one cache line more per level — the pending
// set here is tens to a few thousand events.
const heapArity = 4

type entry struct {
	at  Time
	seq uint64
	n   *eventNode
}

// before orders entries by (time, insertion sequence) — the comparator
// that alone defines the execution order.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues n under its (at, seq) key.
func (s *Sim) push(n *eventNode) {
	s.heap = append(s.heap, entry{})
	s.siftUp(len(s.heap)-1, entry{n.at, n.seq, n})
	if len(s.heap) > s.pendingHW {
		s.pendingHW = len(s.heap)
	}
}

// remove takes the entry at position i out of the heap; the caller owns
// its node. The last entry fills the gap and sifts whichever way its key
// demands.
func (s *Sim) remove(i int) {
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap[last].n = nil
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(&s.heap[(i-1)/heapArity]) {
		s.siftUp(i, e)
	} else {
		s.siftDown(i, e)
	}
}

// siftUp settles e at the hole i or above it.
func (s *Sim) siftUp(i int, e entry) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].n.idx = int32(i)
		i = p
	}
	h[i] = e
	e.n.idx = int32(i)
}

// siftDown settles e at the hole i or below it.
func (s *Sim) siftDown(i int, e entry) {
	h := s.heap
	for {
		c := heapArity*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < c+heapArity && j < len(h); j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		h[i].n.idx = int32(i)
		i = m
	}
	h[i] = e
	e.n.idx = int32(i)
}
