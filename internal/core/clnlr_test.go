package core

import (
	"math"
	"testing"
	"testing/quick"

	"clnlr/internal/des"
	"clnlr/internal/routing"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := Validate(DefaultParams()); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mut := []func(*Params){
		func(p *Params) { p.PMin = -0.1 },
		func(p *Params) { p.PMin = 1.1 },
		func(p *Params) { p.PMax = p.PMin - 0.1 },
		func(p *Params) { p.PMax = 1.5 },
		func(p *Params) { p.PBase = 0 },
		func(p *Params) { p.Gamma = -1 },
		func(p *Params) { p.Beta = -0.5 },
		func(p *Params) { p.DegRef = 0 },
		func(p *Params) { p.DensCap = 0.5 },
		func(p *Params) { p.ReplyWindow = -des.Second },
		func(p *Params) { p.HelloInterval = 0 },
	}
	for i, m := range mut {
		p := DefaultParams()
		m(&p)
		if Validate(p) == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestForwardProbabilityBounds(t *testing.T) {
	pol := &Policy{params: DefaultParams()}
	for _, nl := range []float64{-1, 0, 0.25, 0.5, 0.75, 1, 2} {
		for _, n := range []int{0, 1, 3, 6, 12, 100} {
			p := pol.ForwardProbability(nl, n)
			if p < pol.params.PMin || p > pol.params.PMax {
				t.Fatalf("p(nl=%v, n=%d) = %v outside [%v,%v]",
					nl, n, p, pol.params.PMin, pol.params.PMax)
			}
		}
	}
}

func TestForwardProbabilityDecreasesWithLoad(t *testing.T) {
	pol := &Policy{params: DefaultParams()}
	prev := math.Inf(1)
	for nl := 0.0; nl <= 1.0; nl += 0.05 {
		p := pol.ForwardProbability(nl, 6)
		if p > prev+1e-12 {
			t.Fatalf("probability increased with load at NL=%v", nl)
		}
		prev = p
	}
	// The range must actually be exercised: unloaded ≈ PBase, saturated = PMin.
	if p0 := pol.ForwardProbability(0, 6); math.Abs(p0-pol.params.PBase) > 1e-9 {
		t.Fatalf("p(0) = %v, want PBase %v at reference density", p0, pol.params.PBase)
	}
	if p1 := pol.ForwardProbability(1, 6); p1 != pol.params.PMin {
		t.Fatalf("p(1) = %v, want PMin", p1)
	}
}

func TestForwardProbabilityDensityBoost(t *testing.T) {
	pol := &Policy{params: DefaultParams()}
	sparse := pol.ForwardProbability(0.3, 2)
	ref := pol.ForwardProbability(0.3, 6)
	dense := pol.ForwardProbability(0.3, 14)
	if !(sparse >= ref && ref >= dense) {
		t.Fatalf("density adaptation broken: sparse %v, ref %v, dense %v", sparse, ref, dense)
	}
	// Cold start (no HELLO data yet) must behave like the sparsest case.
	cold := pol.ForwardProbability(0.3, 0)
	if cold < sparse {
		t.Fatalf("cold-start p %v below sparse %v", cold, sparse)
	}
}

func TestGammaControlsLoadSensitivity(t *testing.T) {
	soft := DefaultParams()
	soft.Gamma = 1
	hard := DefaultParams()
	hard.Gamma = 4
	ps := &Policy{params: soft}
	ph := &Policy{params: hard}
	// At moderate load, the harder exponent must suppress more.
	if ph.ForwardProbability(0.4, 6) >= ps.ForwardProbability(0.4, 6) {
		t.Fatal("higher Gamma did not suppress more")
	}
}

func TestCostIncrementRange(t *testing.T) {
	// Without a live Core we can still verify the formula's range via the
	// formula used by CostIncrement: 1 + Beta·NL with NL ∈ [0,1].
	p := DefaultParams()
	lo := 1 + p.Beta*0
	hi := 1 + p.Beta*1
	if lo != 1 {
		t.Fatalf("unloaded cost increment %v, want 1", lo)
	}
	if hi != 1+p.Beta {
		t.Fatalf("saturated cost increment %v", hi)
	}
}

// TestAdaptiveProbabilityShape pins the gossip-adaptive scheme, CLNLR at
// DensityOnly, to the density-adaptive gossip rule it replaced,
// p = clamp(0.4, 1, 0.7·min(1.6, √(6/n))) with the cap at n = 0: the same
// p, bit for bit, at every neighbour count and whatever the load.
func TestAdaptiveProbabilityShape(t *testing.T) {
	params := DensityOnly(des.Second)
	if err := Validate(params); err != nil {
		t.Fatalf("DensityOnly invalid: %v", err)
	}
	pol := &Policy{params: params}
	for n := 0; n <= 20; n++ {
		dens := 1.6
		if n > 0 {
			dens = math.Min(1.6, math.Sqrt(6/float64(n)))
		}
		want := math.Max(0.4, math.Min(1, 0.7*dens))
		for _, nl := range []float64{0, 0.25, 0.5, 1} {
			if got := pol.ForwardProbability(nl, n); got != want {
				t.Fatalf("p(nl=%v, n=%d) = %v, want %v", nl, n, got, want)
			}
		}
	}
	if !(pol.ForwardProbability(0, 2) > pol.ForwardProbability(0, 6) &&
		pol.ForwardProbability(0, 6) > pol.ForwardProbability(0, 16)) {
		t.Fatal("density adaptation broken: p does not fall with neighbour count")
	}
}

// Property: probability is monotone non-increasing in NL and non-increasing
// in neighbour count, for arbitrary valid parameterisations.
func TestQuickForwardProbabilityMonotone(t *testing.T) {
	f := func(nlRaw uint16, nRaw uint8, gammaRaw uint8) bool {
		params := DefaultParams()
		params.Gamma = float64(gammaRaw%6) / 2 // 0..2.5
		pol := &Policy{params: params}
		nl := float64(nlRaw) / 65535
		n := int(nRaw%20) + 1
		p := pol.ForwardProbability(nl, n)
		pMoreLoad := pol.ForwardProbability(math.Min(nl+0.1, 1), n)
		pMoreNbrs := pol.ForwardProbability(nl, n+5)
		return pMoreLoad <= p+1e-12 && pMoreNbrs <= p+1e-12 &&
			p >= params.PMin && p <= params.PMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewPanicsOnInvalidParams: Spec, the one way to build CLNLR agents,
// panics on params Validate rejects (sim.Scenario.Validate checks them
// first, so a scenario never reaches the panic).
func TestNewPanicsOnInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Spec with invalid params did not panic")
		}
	}()
	p := DefaultParams()
	p.PMin = 2
	Spec(routing.Config{}, p)
}
