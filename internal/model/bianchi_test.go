package model

import (
	"math"
	"testing"
	"testing/quick"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

func defaultDCF(n int) DCF {
	return FromMACConfig(mac.DefaultConfig(), n, 540)
}

func TestTauAtZeroCollision(t *testing.T) {
	// Bianchi: τ(p=0) = 2/(W+1).
	d := defaultDCF(1)
	got := d.tau(0)
	want := 2.0 / float64(d.W+1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("tau(0) = %v, want %v", got, want)
	}
}

func TestSolveSingleStation(t *testing.T) {
	d := defaultDCF(1)
	tau, p, err := d.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("single station collision probability %v", p)
	}
	if math.Abs(tau-2.0/float64(d.W+1)) > 1e-12 {
		t.Fatalf("single station tau %v", tau)
	}
}

func TestSolveFixedPointConsistency(t *testing.T) {
	for _, n := range []int{2, 5, 10, 20, 50} {
		d := defaultDCF(n)
		tau, p, err := d.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// The returned pair must satisfy p = 1-(1-τ)^(n-1).
		want := 1 - math.Pow(1-tau, float64(n-1))
		if math.Abs(p-want) > 1e-6 {
			t.Fatalf("n=%d: fixed point inconsistent: p=%v, 1-(1-τ)^(n-1)=%v", n, p, want)
		}
	}
}

func TestCollisionProbabilityIncreasesWithN(t *testing.T) {
	prev := -1.0
	for _, n := range []int{2, 5, 10, 20, 50, 100} {
		_, p, err := defaultDCF(n).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("p not increasing at n=%d: %v <= %v", n, p, prev)
		}
		if p <= 0 || p >= 1 {
			t.Fatalf("p out of range at n=%d: %v", n, p)
		}
		prev = p
	}
}

func TestThroughputShape(t *testing.T) {
	// Aggregate saturation throughput peaks at small n and declines as
	// contention overhead grows; it never exceeds the raw airtime bound.
	d1 := defaultDCF(1)
	s1, err := d1.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	// One station: payload / full-cycle airtime including mean backoff.
	cycle := (d1.DataAirtime + d1.SIFS + d1.AckAirtime + d1.DIFS).Seconds() +
		float64(d1.W-1)/2*d1.Slot.Seconds()
	bound := d1.PayloadBits / cycle
	if math.Abs(s1-bound)/bound > 0.01 {
		t.Fatalf("n=1 throughput %v vs deterministic cycle %v", s1, bound)
	}
	s50, _ := defaultDCF(50).Throughput()
	if s50 >= s1 {
		t.Fatalf("50-station throughput %v not below 1-station %v", s50, s1)
	}
	if s50 < 0.3*s1 {
		t.Fatalf("50-station throughput %v implausibly low", s50)
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, _, err := (DCF{N: 0, W: 16}).Solve(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, _, err := (DCF{N: 5, W: 1}).Solve(); err == nil {
		t.Fatal("W=1 accepted")
	}
}

// Property: for any station count and CW config in sane ranges, the fixed
// point exists with τ, p ∈ (0,1).
func TestQuickFixedPointInRange(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw%60) + 1
		wExp := int(wRaw%5) + 3 // W in {8..128}
		d := defaultDCF(n)
		d.W = 1 << wExp
		tau, p, err := d.Solve()
		if err != nil {
			return false
		}
		return tau > 0 && tau < 1 && p >= 0 && p < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- simulator cross-validation ---

type sinkRec struct{ bytes uint64 }

func (s *sinkRec) MacReceive(p *pkt.Packet, from pkt.NodeID) { s.bytes += uint64(p.Bytes) }
func (s *sinkRec) MacTxDone(*pkt.Packet, pkt.NodeID, bool)   {}

type nopUpper struct{}

func (nopUpper) MacReceive(*pkt.Packet, pkt.NodeID)      {}
func (nopUpper) MacTxDone(*pkt.Packet, pkt.NodeID, bool) {}

// simSaturation runs n saturated senders around a common sink and returns
// the delivered payload throughput in bits/s.
func simSaturation(t *testing.T, n int) float64 {
	t.Helper()
	cfg := mac.DefaultConfig()
	cfg.RetryLimit = 100 // Bianchi assumes unbounded retries
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	master := rng.New(uint64(n) + 7)
	sinkRadio := medium.Attach(geom.Point{}, radio.DefaultParams())
	sinkMac := mac.New(cfg, sim, sinkRadio, 0, master.Derive(0))
	rec := &sinkRec{}
	sinkMac.SetUpper(rec)
	const dur = 30 * des.Second
	for i := 1; i <= n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := medium.Attach(geom.Point{X: 50 * math.Cos(ang), Y: 50 * math.Sin(ang)},
			radio.DefaultParams())
		m := mac.New(cfg, sim, r, pkt.NodeID(i), master.Derive(uint64(i)))
		m.SetUpper(nopUpper{})
		src := pkt.NodeID(i)
		sim.AtTrain(0, des.Millisecond, int(dur/des.Millisecond)+1, des.Func(func() {
			for m.QueueLen() < 5 {
				m.Send(nilPool.Data(src, 0, 512, 0, 0, sim.Now(), 30), 0)
			}
		}), 0, 0)
	}
	sim.RunUntil(dur)
	// rec.bytes counts network-layer bytes (payload + IP/UDP); scale to
	// pure payload to match the model's PayloadBits.
	return float64(rec.bytes) * 8 / dur.Seconds() * (512.0 / 540.0)
}

// TestSimulatorMatchesBianchi cross-validates the packet simulator's
// saturation throughput against the analytical model.
//
// Expected agreement: exact for n=1 (no contention, both reduce to the
// same airtime arithmetic) and progressively looser as n grows, because
// the simulator's carrier sensing is continuous-time (a station whose
// backoff expires microseconds after another's transmission began defers
// instead of colliding) while Bianchi assumes slot-synchronised stations
// where equal backoff draws always collide. The simulator therefore sees
// *fewer* collisions and slightly higher throughput — a documented
// modelling difference, bounded here.
func TestSimulatorMatchesBianchi(t *testing.T) {
	for _, tc := range []struct {
		n        int
		maxRatio float64
	}{
		{1, 1.01},
		{2, 1.08},
		{5, 1.18},
		{10, 1.28},
	} {
		d := defaultDCF(tc.n)
		d.PayloadBits = 512 * 8
		want, err := d.Throughput()
		if err != nil {
			t.Fatal(err)
		}
		got := simSaturation(t, tc.n)
		ratio := got / want
		if ratio < 0.95 || ratio > tc.maxRatio {
			t.Fatalf("n=%d: sim %.0f vs Bianchi %.0f (ratio %.3f outside [0.95, %.2f])",
				tc.n, got, want, ratio, tc.maxRatio)
		}
	}
}
