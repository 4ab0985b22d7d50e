package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReproducibility(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	s := New(0)
	v := s.Uint64()
	if v == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate all-zero stream")
	}
}

func TestDeriveIndependentOfConsumption(t *testing.T) {
	parent1 := New(7)
	parent2 := New(7)
	// Consume from parent2 before deriving; derivation must not change.
	for i := 0; i < 10; i++ {
		parent2.Uint64()
	}
	d1 := parent1.Derive(3, 5)
	d2 := parent2.Derive(3, 5)
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatalf("derived streams differ at step %d despite identical lineage", i)
		}
	}
}

// TestDeriveIntoMatchesDerive: reseeding a used Source in place — even
// the parent itself — yields exactly the stream Derive would allocate,
// and the parent's own lineage (what later derivations mix) is read
// before dst is overwritten.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	parent := New(7)
	want := parent.Derive(3, 5)
	dst := New(99)
	dst.Uint64()
	parent.DeriveInto(dst, 3, 5)
	self := New(7)
	self.DeriveInto(self, 3, 5)
	for i := 0; i < 100; i++ {
		w := want.Uint64()
		if g, s := dst.Uint64(), self.Uint64(); g != w || s != w {
			t.Fatalf("step %d: DeriveInto gives %d, into itself %d, Derive %d", i, g, s, w)
		}
	}
	if n := testing.AllocsPerRun(100, func() { parent.DeriveInto(dst, 3, 5) }); n != 0 {
		t.Errorf("DeriveInto allocates %v times, want 0", n)
	}
}

func TestDeriveSiblingsDiffer(t *testing.T) {
	parent := New(7)
	a := parent.Derive(1)
	b := parent.Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling derived streams coincide on %d of 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v deviates from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(13)
	const buckets = 10
	const draws = 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want about %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	s := New(1)
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const mean = 3.5
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean %v deviates from %v", got, mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	s := New(23)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(29)
	const p = 0.3
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) frequency %v", p, got)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(41)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v out of range", v)
		}
	}
}

// Property: any seed produces a stream whose first 64 outputs are not all
// equal (i.e. the generator never degenerates to a constant).
func TestQuickNonDegenerate(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		first := s.Uint64()
		for i := 0; i < 63; i++ {
			if s.Uint64() != first {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reseeding restores the exact stream.
func TestQuickReseedRestoresStream(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		var want [8]uint64
		for i := range want {
			want[i] = s.Uint64()
		}
		s.Reseed(seed)
		for i := range want {
			if s.Uint64() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) is always within [0,n) for arbitrary positive n.
func TestQuickIntnBounds(t *testing.T) {
	s := New(101)
	f := func(raw uint32) bool {
		n := int(raw%1_000_000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1023)
	}
}

// TestBoolDrawMatchesBool pins the decision-provenance contract: BoolDraw
// must return the same outcome as Bool AND consume exactly the same amount
// of the stream, including the degenerate p≤0 / p≥1 fast paths that draw
// nothing. Any divergence would silently break run determinism when
// provenance recording is enabled.
func TestBoolDrawMatchesBool(t *testing.T) {
	probs := []float64{-0.5, 0, 1e-12, 0.25, 0.5, 0.9, 0.999999, 1, 1.5}
	a := New(42)
	b := New(42)
	for round := 0; round < 1000; round++ {
		p := probs[round%len(probs)]
		want := a.Bool(p)
		got, draw := b.BoolDraw(p)
		if got != want {
			t.Fatalf("round %d p=%v: BoolDraw=%v, Bool=%v", round, p, got, want)
		}
		if p <= 0 || p >= 1 {
			if draw != -1 {
				t.Fatalf("round %d p=%v: degenerate draw = %v, want -1", round, p, draw)
			}
		} else {
			if draw < 0 || draw >= 1 {
				t.Fatalf("round %d p=%v: draw = %v outside [0,1)", round, p, draw)
			}
			if got != (draw < p) {
				t.Fatalf("round %d p=%v: outcome %v inconsistent with draw %v", round, p, got, draw)
			}
		}
	}
	// Streams must still be in lock-step after mixed degenerate and real draws.
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged after BoolDraw sequence (step %d)", i)
		}
	}
}
