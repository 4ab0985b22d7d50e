package recycle

import "testing"

func TestListIsLIFO(t *testing.T) {
	var l List[int]
	for v := 1; v <= 3; v++ {
		l.Put(v, Unbounded)
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
	l.Put(new(int), Unbounded)
	l.Put(new(int), Unbounded)
	l.Get()
	if p := l.items[:2][1]; p != nil {
		t.Fatal("the slot Get vacated still points at the value")
	}
}

func TestListPutAtBound(t *testing.T) {
	var l List[int]
	for v := 0; v < 4; v++ {
		if !l.Put(v, 4) {
			t.Fatalf("Put %d below the bound refused", v)
		}
	}
	if l.Put(9, 4) {
		t.Fatal("Put at the bound kept the value")
	}
	if l.Len() != 4 {
		t.Fatalf("Len %d after a refused Put, want 4", l.Len())
	}
	if v, _ := l.Get(); v != 3 {
		t.Fatalf("Get = %d after a refused Put, want 3", v)
	}
	if l.Put(1, 0) {
		t.Fatal("Put with bound 0 kept the value")
	}
}

func TestListWarmCycleAllocatesNothing(t *testing.T) {
	var l List[*int]
	v := new(int)
	l.Put(v, 8)
	n := testing.AllocsPerRun(100, func() {
		p, _ := l.Get()
		l.Put(p, 8)
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
}
