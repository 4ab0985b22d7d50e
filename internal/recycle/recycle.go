// Package recycle holds the two free-list shapes every warm-engine pool is
// built from. A List is a LIFO stack of released values, optionally
// bounded so a burst cannot pin its peak for the rest of a warm sweep; a
// Slab keeps values at stable uint32 indices, so a typed DES event can
// carry one as its arg instead of capturing the value in a closure.
// Neither is safe for concurrent use.
package recycle

// Unbounded is the bound to pass to List.Put for a list that never drops.
const Unbounded = int(^uint(0) >> 1)

// List is a LIFO free list. The zero value is an empty list.
type List[T any] struct{ items []T }

// Get pops the most recently put value and zeroes the slot it vacates, so
// the list keeps no reference to it; ok is false when the list is empty.
func (l *List[T]) Get() (v T, ok bool) {
	k := len(l.items) - 1
	if k < 0 {
		return v, false
	}
	v = l.items[k]
	l.items[k] = *new(T)
	l.items = l.items[:k]
	return v, true
}

// Put pushes v unless the list already holds max values, and reports
// whether it kept v.
func (l *List[T]) Put(v T, max int) bool {
	if len(l.items) >= max {
		return false
	}
	l.items = append(l.items, v)
	return true
}

// Len returns how many values the list holds.
func (l *List[T]) Len() int { return len(l.items) }

// Slab stores values at stable uint32 indices. Freed indices are reused
// most recent first. The zero value is an empty slab.
type Slab[T any] struct {
	items []T
	free  List[uint32]
}

// Add stores v and returns its index.
func (s *Slab[T]) Add(v T) uint32 {
	if i, ok := s.free.Get(); ok {
		s.items[i] = v
		return i
	}
	s.items = append(s.items, v)
	return uint32(len(s.items) - 1)
}

// At returns the slot at index i; the pointer is valid until the next Add.
func (s *Slab[T]) At(i uint32) *T { return &s.items[i] }

// Take returns the value at index i, zeroes its slot and frees i.
func (s *Slab[T]) Take(i uint32) T {
	v := s.items[i]
	s.items[i] = *new(T)
	s.free.Put(i, Unbounded)
	return v
}

// Live returns how many indices hold a value that was not taken.
func (s *Slab[T]) Live() int { return len(s.items) - s.free.Len() }

// Reset frees every index and zeroes every slot, keeping the storage.
func (s *Slab[T]) Reset() {
	clear(s.items)
	s.items = s.items[:0]
	s.free.items = s.free.items[:0]
}
