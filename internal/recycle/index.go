package recycle

import "math/bits"

// Key is what an Index is keyed by: a comparable value with a hash of
// its own. Hash need not mix its bits; Index multiplies it by a
// Fibonacci constant and keeps the top bits.
type Key interface {
	comparable
	Hash() uint64
}

// indexMinSlots is the slot count of an Index's first table.
const indexMinSlots = 8

// Index maps keys to values in one open-addressing table: linear probing,
// at most half full, deletion by backward shift, so no tombstone ever
// lengthens a probe. It stands in for a Go map where a warm engine keys
// live state that comes and goes: a map's storage also grows when
// deletions leave tombstones, whose places follow a hash seed each clear
// redraws, so the same run can allocate on one pass and not on the next.
// An Index grows (doubling) only when it holds more keys than it ever
// has, and keeps its storage across Clear. The zero value is an empty
// index. Not safe for concurrent use.
type Index[K Key, V any] struct {
	slots []indexSlot[K, V] // power-of-two length, or none
	n     int
	shift uint8 // 64 - log2(len(slots)): a hash's top bits are its home
}

type indexSlot[K Key, V any] struct {
	key  K
	val  V
	used bool
}

// Len returns how many keys the index holds.
func (x *Index[K, V]) Len() int { return x.n }

// Get returns k's value and true, or the zero value and false.
func (x *Index[K, V]) Get(k K) (V, bool) {
	if x.n > 0 {
		if s, ok := x.find(k); ok {
			return x.slots[s].val, true
		}
	}
	var zero V
	return zero, false
}

// Put sets k's value, adding k if it is new, and reports whether it was.
func (x *Index[K, V]) Put(k K, v V) (added bool) {
	var s int
	if len(x.slots) > 0 {
		var ok bool
		if s, ok = x.find(k); ok {
			x.slots[s].val = v
			return false
		}
	}
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
		s, _ = x.find(k)
	}
	x.slots[s] = indexSlot[K, V]{key: k, val: v, used: true}
	x.n++
	return true
}

// Delete removes k and reports whether it was there. The entries after
// it in its probe run move back over the hole, so every key left stays
// reachable from its home slot through used slots.
func (x *Index[K, V]) Delete(k K) bool {
	if x.n == 0 {
		return false
	}
	i, ok := x.find(k)
	if !ok {
		return false
	}
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		h := x.home(x.slots[j].key)
		if (j-h)&mask < (j-i)&mask {
			continue // home in (i, j]: moving back would strand it
		}
		x.slots[i] = x.slots[j]
		i = j
	}
	x.slots[i] = indexSlot[K, V]{}
	x.n--
	return true
}

// Clear removes every key, keeping the storage.
func (x *Index[K, V]) Clear() {
	clear(x.slots)
	x.n = 0
}

// Each calls f with every key and value, in slot order: an order fixed
// by the keys held and the order they came in, no other.
func (x *Index[K, V]) Each(f func(K, V)) {
	for i := range x.slots {
		if s := &x.slots[i]; s.used {
			f(s.key, s.val)
		}
	}
}

// home is k's first probe slot.
func (x *Index[K, V]) home(k K) int {
	return int(k.Hash() * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the slot holding k and true, or the empty slot that ends
// k's probe run and false. The table must have slots.
func (x *Index[K, V]) find(k K) (int, bool) {
	mask := len(x.slots) - 1
	for s := x.home(k); ; s = (s + 1) & mask {
		if !x.slots[s].used {
			return s, false
		}
		if x.slots[s].key == k {
			return s, true
		}
	}
}

// grow doubles the table (or makes the first) and reinserts every entry.
func (x *Index[K, V]) grow() {
	old := x.slots
	x.slots = make([]indexSlot[K, V], max(2*len(old), indexMinSlots))
	x.shift = uint8(bits.LeadingZeros64(uint64(len(x.slots) - 1)))
	for _, s := range old {
		if s.used {
			i, _ := x.find(s.key)
			x.slots[i] = s
		}
	}
}
