// Package recycle holds the storage shapes every warm-engine pool is
// built from. A List is a LIFO stack of released values that keeps every
// value put back, with room reserved for every value it saw made; a
// Slab keeps values at stable uint32 indices, so a typed DES event can
// carry one as its arg instead of capturing the value in a closure; an
// Index maps keys to values where a Go map's storage would follow its
// hash seed. None is safe for concurrent use.
package recycle

import "slices"

// List is a LIFO free list. The zero value is an empty list.
type List[T any] struct {
	items []T
	made  int // values made on a miss (see Made)
}

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

// Put pushes v. It never drops a value.
func (l *List[T]) Put(v T) { l.items = append(l.items, v) }

// Len returns how many values the list holds.
func (l *List[T]) Len() int { return len(l.items) }

// Made records that the caller made a new value because Get missed.
// The list keeps room for every value made, so taking them all back — as
// a warm reset does after the first run that had them all out at once —
// grows nothing.
func (l *List[T]) Made() {
	l.made++
	if l.made > cap(l.items) {
		l.items = slices.Grow(l.items, l.made-len(l.items))
	}
}

// Each calls f with every value the list holds, oldest first.
func (l *List[T]) Each(f func(T)) {
	for _, v := range l.items {
		f(v)
	}
}

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
	s.free.Made() // room to free every index
	return uint32(len(s.items) - 1)
}

// At returns the slot at index i; the pointer is valid until the next Add.
func (s *Slab[T]) At(i uint32) *T { return &s.items[i] }

// Take returns the value at index i, zeroes its slot and frees i.
func (s *Slab[T]) Take(i uint32) T {
	v := s.items[i]
	s.items[i] = *new(T)
	s.free.Put(i)
	return v
}

// Len returns how many indices the slab has handed out, live or freed:
// every index below it is valid for At.
func (s *Slab[T]) Len() int { return len(s.items) }

// Live returns how many indices hold a value that was not taken.
func (s *Slab[T]) Live() int { return len(s.items) - s.free.Len() }

// Each calls f with every slot's value in index order: the value at a
// live index, the zero value at a taken one.
func (s *Slab[T]) Each(f func(T)) {
	for _, v := range s.items {
		f(v)
	}
}

// Reset frees every index and zeroes every slot, keeping the storage.
// The free list's count of indices made restarts at zero, so the room
// it keeps stays the most indices the slab held at once.
func (s *Slab[T]) Reset() {
	clear(s.items)
	s.items = s.items[:0]
	s.free.items = s.free.items[:0]
	s.free.made = 0
}
