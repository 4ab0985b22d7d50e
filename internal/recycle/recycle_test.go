package recycle

import "testing"

func TestListIsLIFO(t *testing.T) {
	var l List[int]
	for v := 1; v <= 3; v++ {
		l.Put(v)
	}
	for want := 3; want >= 1; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if v, ok := l.Get(); ok || v != 0 {
		t.Fatalf("Get on an empty list = %d, %v; want 0, false", v, ok)
	}
}

func TestListGetZeroesVacatedSlot(t *testing.T) {
	var l List[*int]
	l.Put(new(int))
	l.Put(new(int))
	l.Get()
	if p := l.items[:2][1]; p != nil {
		t.Fatal("the slot Get vacated still points at the value")
	}
}

func TestListWarmCycleAllocatesNothing(t *testing.T) {
	var l List[*int]
	v := new(int)
	l.Put(v)
	n := testing.AllocsPerRun(100, func() {
		p, _ := l.Get()
		l.Put(p)
	})
	if n != 0 {
		t.Fatalf("warm Get/Put: %v allocs, want 0", n)
	}
}

func TestSlabReusesMostRecentlyFreed(t *testing.T) {
	var s Slab[string]
	for i, v := range []string{"a", "b", "c"} {
		if got := s.Add(v); got != uint32(i) {
			t.Fatalf("Add %q = %d, want %d", v, got, i)
		}
	}
	s.Take(0)
	s.Take(2)
	if i := s.Add("d"); i != 2 {
		t.Fatalf("Add after freeing 0 then 2 took %d, want 2", i)
	}
	if i := s.Add("e"); i != 0 {
		t.Fatalf("second Add took %d, want 0", i)
	}
	if i := s.Add("f"); i != 3 {
		t.Fatalf("Add with nothing free took %d, want 3", i)
	}
	if *s.At(1) != "b" || *s.At(2) != "d" {
		t.Fatalf("slots 1, 2 hold %q, %q; want b, d", *s.At(1), *s.At(2))
	}
}

func TestSlabTakeZeroesSlot(t *testing.T) {
	var s Slab[*int]
	v := new(int)
	i := s.Add(v)
	if got := s.Take(i); got != v {
		t.Fatal("Take did not return the stored value")
	}
	if *s.At(i) != nil {
		t.Fatal("the slot Take freed still points at the value")
	}
}

func TestSlabLiveAndReset(t *testing.T) {
	var s Slab[*int]
	if s.Live() != 0 {
		t.Fatalf("empty slab Live %d", s.Live())
	}
	for k := 0; k < 5; k++ {
		s.Add(new(int))
	}
	s.Take(1)
	s.Take(3)
	if s.Live() != 3 {
		t.Fatalf("Live %d after 5 Adds and 2 Takes, want 3", s.Live())
	}
	s.At(4) // a live slot stays put through At
	s.Reset()
	if s.Live() != 0 {
		t.Fatalf("Live %d after Reset, want 0", s.Live())
	}
	for k, p := range s.items[:5] {
		if p != nil {
			t.Fatalf("slot %d still points at a value after Reset", k)
		}
	}
	if i := s.Add(new(int)); i != 0 {
		t.Fatalf("first Add after Reset took %d, want 0", i)
	}
}

func TestSlabWarmCycleAllocatesNothing(t *testing.T) {
	var s Slab[*int]
	v := new(int)
	s.Take(s.Add(v))
	n := testing.AllocsPerRun(100, func() {
		s.Take(s.Add(v))
	})
	if n != 0 {
		t.Fatalf("warm Add/Take: %v allocs, want 0", n)
	}
	// Reset, then fill and empty the slab again: a warm run's cycle. The
	// free list's room stays the most indices held at once.
	for range 100 {
		s.Reset()
		for range 4 {
			s.Add(v)
		}
		for i := range uint32(4) {
			s.Take(i)
		}
	}
	if c := cap(s.free.items); c > 8 {
		t.Fatalf("free list room %d after warm cycles of 4 indices, want at most 8", c)
	}
}

// key is a test Index key whose hash the test picks, so probe runs
// collide and wrap on purpose.
type key struct{ v, h uint64 }

func (k key) Hash() uint64 { return k.h }

// TestIndexMatchesMap drives an Index and a Go map through the same
// random puts, deletes and clears, with hashes drawn from a few values
// so that probe runs cluster and wrap the table, and compares every
// lookup, every Put's report of a new key, the length and the full
// contents.
func TestIndexMatchesMap(t *testing.T) {
	var x Index[key, int]
	ref := make(map[key]int)
	state := uint64(1)
	draw := func(n uint64) uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	for step := 0; step < 20000; step++ {
		k := key{v: draw(64)}
		k.h = k.v % 5 // five homes per table size: long shared runs
		switch op := draw(100); {
		case op < 50:
			_, had := ref[k]
			if added := x.Put(k, step); added == had {
				t.Fatalf("step %d: Put(%v) reports added %v, the map had it: %v", step, k, added, had)
			}
			ref[k] = step
		case op < 95:
			_, want := ref[k]
			if got := x.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%v) = %v, want %v", step, k, got, want)
			}
			delete(ref, k)
		case op < 96:
			x.Clear()
			clear(ref)
		default:
			seen := 0
			x.Each(func(k key, v int) {
				if w, ok := ref[k]; !ok || w != v {
					t.Fatalf("step %d: Each gave %v=%d, map has %d, %v", step, k, v, w, ok)
				}
				seen++
			})
			if seen != len(ref) {
				t.Fatalf("step %d: Each visited %d keys, map holds %d", step, seen, len(ref))
			}
		}
		got, ok := x.Get(k)
		want, wok := ref[k]
		if ok != wok || got != want || x.Len() != len(ref) {
			t.Fatalf("step %d: Get(%v) = %d, %v, Len %d; map %d, %v, %d", step, k, got, ok, x.Len(), want, wok, len(ref))
		}
	}
}

// TestIndexWarmChurnAllocatesNothing: once an Index has held as many
// keys as it is given, any sequence of puts and deletes, and Clear,
// allocates nothing.
func TestIndexWarmChurnAllocatesNothing(t *testing.T) {
	var x Index[key, *int]
	for i := uint64(0); i < 100; i++ {
		x.Put(key{v: i, h: i}, nil)
	}
	x.Clear()
	next := uint64(0)
	n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			x.Put(key{v: next, h: next}, nil)
			next++
		}
		for i := next - 50; i < next; i++ {
			x.Delete(key{v: i, h: i})
		}
		x.Put(key{v: 1, h: 1}, nil)
		x.Clear()
	})
	if n != 0 {
		t.Fatalf("warm Put/Delete/Clear: %v allocs, want 0", n)
	}
}

// TestListMadeKeepsRoom: a list keeps room for every value made on a
// miss, so after n Made calls the n values go back, all at once and
// again and again, without growing the list's storage.
func TestListMadeKeepsRoom(t *testing.T) {
	const n = 1000
	var l List[*int]
	vals := make([]*int, n)
	for i := range vals {
		if _, ok := l.Get(); ok {
			t.Fatal("Get on an empty list returned a value")
		}
		l.Made()
		vals[i] = new(int)
	}
	room := cap(l.items)
	if room < n {
		t.Fatalf("room for %d values after %d made", room, n)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, v := range vals {
			l.Put(v)
		}
		for range vals {
			l.Get()
		}
	})
	if allocs != 0 || cap(l.items) != room {
		t.Fatalf("taking back every value made: %v allocs, room %d -> %d; want 0 and no growth",
			allocs, room, cap(l.items))
	}
}

// TestListPutNeverDrops: Put keeps every value, beyond the values the
// list saw made too, and Get hands each back once, most recent first.
func TestListPutNeverDrops(t *testing.T) {
	const n = 20000
	var l List[int]
	l.Made()
	for v := 0; v < n; v++ {
		l.Put(v)
	}
	if l.Len() != n {
		t.Fatalf("Len %d after %d Puts, want %d", l.Len(), n, n)
	}
	for want := n - 1; want >= 0; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
}
