package serve

import (
	"crypto/sha256"
	"sync"
)

// digest identifies one request body on one endpoint: the endpoint kind and
// SHA-256 of the raw bytes. The kind is part of the identity because the
// same bytes mean different jobs on /v1/run and /v1/sweep.
type digest struct {
	kind string
	sum  [sha256.Size]byte
}

func digestOf(kind string, body []byte) digest {
	return digest{kind: kind, sum: sha256.Sum256(body)}
}

// digestMemo remembers which job key a request body normalises to, so a
// byte-identical repeat reaches its result without being parsed. Body →
// key is a pure function, so an entry is never wrong, only absent: the
// memo holds digests and keys (never bodies or results), forgets its
// oldest entry when a new one would exceed max, and a forgotten or
// never-seen body takes the decode → normalise → key path and is recorded
// again.
type digestMemo struct {
	mu    sync.Mutex
	max   int
	keys  map[digest]string
	order []digest // the digests in keys, in insertion order from next once full
	next  int
}

func newDigestMemo(max int) *digestMemo {
	return &digestMemo{max: max, keys: make(map[digest]string)}
}

func (m *digestMemo) get(d digest) (string, bool) {
	m.mu.Lock()
	key, ok := m.keys[d]
	m.mu.Unlock()
	return key, ok
}

func (m *digestMemo) put(d digest, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.keys[d]; ok {
		return
	}
	if len(m.order) < m.max {
		m.order = append(m.order, d)
	} else {
		delete(m.keys, m.order[m.next])
		m.order[m.next] = d
		m.next = (m.next + 1) % m.max
	}
	m.keys[d] = key
}

func (m *digestMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}
