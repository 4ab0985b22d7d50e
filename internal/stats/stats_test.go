package stats

import (
	"math"
	"testing"
	"testing/quick"

	"clnlr/internal/rng"
)

func naiveMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

// normal draws a normally distributed value from src (Box–Muller, one
// value per call).
func normal(src *rng.Source, mean, stddev float64) float64 {
	u1 := 1 - src.Float64() // (0,1]
	u2 := src.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

func TestWelfordMatchesNaive(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = normal(src, 10, 3)
		w.Add(xs[i])
	}
	mean, variance := naiveMeanVar(xs)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs naive %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-6 {
		t.Fatalf("var %v vs naive %v", w.Var(), variance)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.n != 0 {
		t.Fatal("zero Welford not zero-valued")
	}
	w.Add(7)
	if w.Mean() != 7 || w.Var() != 0 || w.Std() != 0 {
		t.Fatalf("single sample: mean %v var %v", w.Mean(), w.Var())
	}
}

// Property: Welford over any float slice (bounded values) matches the
// two-pass computation.
func TestQuickWelford(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r) / 7
			w.Add(xs[i])
		}
		mean, variance := naiveMeanVar(xs)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-variance) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two Welford accumulators equals accumulating the
// concatenation.
func TestQuickWelfordMerge(t *testing.T) {
	f := func(a, b []int16) bool {
		var wa, wb, all Welford
		for _, r := range a {
			wa.Add(float64(r))
			all.Add(float64(r))
		}
		for _, r := range b {
			wb.Add(float64(r))
			all.Add(float64(r))
		}
		wa.Merge(wb)
		if wa.n != all.n {
			return false
		}
		return math.Abs(wa.Mean()-all.Mean()) < 1e-6 &&
			math.Abs(wa.Var()-all.Var()) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var tw TimeWeighted
	tw.Reset(0, 5)
	if got := tw.Avg(1000); got != 5 {
		t.Fatalf("constant signal avg %v, want 5", got)
	}
}

func TestTimeWeightedStep(t *testing.T) {
	var tw TimeWeighted
	tw.Reset(0, 0)
	tw.Set(100, 10) // 0 for [0,100), 10 for [100,200)
	got := tw.Avg(200)
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("step avg %v, want 5", got)
	}
}

func TestTimeWeightedMultipleSteps(t *testing.T) {
	var tw TimeWeighted
	tw.Reset(0, 1)
	tw.Set(10, 3)
	tw.Set(30, 0)
	// integral = 1*10 + 3*20 + 0*10 = 70 over 40
	if got := tw.Avg(40); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("avg %v, want 1.75", got)
	}
	if tw.Max() != 3 {
		t.Fatalf("max %v, want 3", tw.Max())
	}
	if tw.Value() != 0 {
		t.Fatalf("value %v, want 0", tw.Value())
	}
}

func TestTimeWeightedSameInstantUpdates(t *testing.T) {
	var tw TimeWeighted
	tw.Reset(0, 1)
	tw.Set(10, 2)
	tw.Set(10, 4) // overrides at the same instant; no zero-width interval counted
	if got := tw.Avg(20); math.Abs(got-(1*10+4*10)/20.0) > 1e-12 {
		t.Fatalf("avg %v", got)
	}
}

func TestTimeWeightedAutoStart(t *testing.T) {
	var tw TimeWeighted
	tw.Set(50, 2) // first Set acts as Reset
	if got := tw.Avg(150); math.Abs(got-2) > 1e-12 {
		t.Fatalf("auto-start avg %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6, 8})
	if s.N != 4 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	// std = sqrt((9+1+1+9)/3) = sqrt(20/3); CI = t(3)*std/2
	wantStd := math.Sqrt(20.0 / 3)
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Fatalf("std %v, want %v", s.Std, wantStd)
	}
	wantCI := 3.182 * wantStd / 2
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Fatalf("CI %v, want %v", s.CI95, wantCI)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	if s := Summarize([]float64{3}); s.Mean != 3 || s.CI95 != 0 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestTCritMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		c := tCrit95(df)
		if c > prev+1e-9 {
			t.Fatalf("t-critical not non-increasing at df=%d (%v > %v)", df, c, prev)
		}
		if c < 1.95 {
			t.Fatalf("t-critical %v below normal value at df=%d", c, df)
		}
		prev = c
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Fatal("tCrit95(0) should be NaN")
	}
}

// Property: CI half-width shrinks (weakly) as identical batches of data
// are replicated more times.
func TestQuickCIShrinks(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		base := make([]float64, 5)
		for i := range base {
			base[i] = normal(src, 0, 1)
		}
		small := Summarize(base)
		big := Summarize(append(append(append([]float64{}, base...), base...), base...))
		return big.CI95 <= small.CI95+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i))
	}
}

func BenchmarkTimeWeightedSet(b *testing.B) {
	var tw TimeWeighted
	tw.Reset(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tw.Set(int64(i), float64(i&7))
	}
}
