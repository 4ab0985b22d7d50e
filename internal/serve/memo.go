package serve

import "sync"

// memoMaxBody is the largest request body the memo keeps. A longer body
// is never remembered: it takes the decode path every time.
const memoMaxBody = 16 << 10

// bodyMemo remembers which job key a request body normalised to, so a
// byte-identical repeat reaches its result without being parsed. It is
// keyed by the body itself, one map per endpoint (the same bytes mean
// different jobs on /v1/run and /v1/sweep), so a hit is exact byte
// equality on the right endpoint: the map's hash only picks the bucket,
// and a collision costs a comparison, never a wrong key. Body → key is a
// pure function, so an entry is never wrong, only absent: the memo
// forgets its oldest entry when a new one would exceed max, and a
// forgotten or never-seen body takes the decode → normalise → key path and
// is recorded again.
//
// A value is the X-Job-Key header value, a one-element slice built once
// per entry and written as is into every hit's header map; its only
// element is the job key.
type bodyMemo struct {
	mu         sync.Mutex
	max        int
	run, sweep map[string][]string
	order      []memoSlot // the entries, in insertion order from next once full
	next       int
}

type memoSlot struct {
	sweep bool
	body  string // shares its bytes with the map key
}

func newBodyMemo(max int) *bodyMemo {
	return &bodyMemo{max: max, run: make(map[string][]string), sweep: make(map[string][]string)}
}

func (m *bodyMemo) table(sweep bool) map[string][]string {
	if sweep {
		return m.sweep
	}
	return m.run
}

// get returns the X-Job-Key value remembered for body on one endpoint, or
// nil. The lookup neither copies nor allocates.
func (m *bodyMemo) get(kind string, body []byte) []string {
	if len(body) > memoMaxBody {
		return nil
	}
	m.mu.Lock()
	keyHdr := m.table(kind == "sweep")[string(body)]
	m.mu.Unlock()
	return keyHdr
}

// put remembers that body normalised to key on one endpoint. A body over
// memoMaxBody, or one already known, is left as it is.
func (m *bodyMemo) put(kind string, body []byte, key string) {
	if len(body) > memoMaxBody {
		return
	}
	sweep := kind == "sweep"
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table(sweep)
	if _, ok := t[string(body)]; ok {
		return
	}
	slot := memoSlot{sweep: sweep, body: string(body)}
	if len(m.order) < m.max {
		m.order = append(m.order, slot)
	} else {
		old := m.order[m.next]
		delete(m.table(old.sweep), old.body)
		m.order[m.next] = slot
		m.next = (m.next + 1) % m.max
	}
	t[slot.body] = []string{key}
}
