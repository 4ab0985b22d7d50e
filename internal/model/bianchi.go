// Package model provides analytical performance models used to validate
// the simulator, in the tradition of the performance-modelling papers
// this reproduction's venue favours.
//
// The centrepiece is Bianchi's Markov model of 802.11 DCF saturation
// throughput (G. Bianchi, "Performance Analysis of the IEEE 802.11
// Distributed Coordination Function", JSAC 2000): given n saturated
// stations in one collision domain, a fixed point over the per-slot
// transmission probability τ and the conditional collision probability p
// yields the aggregate payload throughput. The simulator's MAC is checked
// against it by TestSimulatorMatchesBianchi.
package model

import (
	"errors"
	"math"

	"clnlr/internal/des"
	"clnlr/internal/mac"
)

// DCF describes a saturated 802.11 basic-access cell for the Bianchi
// model. All durations are des.Time (nanoseconds).
type DCF struct {
	// N is the number of contending stations.
	N int
	// W is the minimum contention window size in slots (CWmin+1).
	W int
	// M is the number of backoff stages (CWmax+1 = 2^M · W).
	M int
	// Slot, SIFS and DIFS are the DCF timings.
	Slot, SIFS, DIFS des.Time
	// PayloadBits is the payload size per frame in bits (what counts as
	// useful throughput).
	PayloadBits float64
	// DataAirtime is the full data-frame airtime (preamble + headers +
	// payload); AckAirtime the ACK airtime; AckTimeout the time a sender
	// wastes after a collision before resuming contention.
	DataAirtime des.Time
	AckAirtime  des.Time
	AckTimeout  des.Time
}

// FromMACConfig derives the model inputs from a simulator MAC
// configuration, n stations and a network-layer packet size in bytes.
func FromMACConfig(cfg mac.Config, n, packetBytes int) DCF {
	frameBytes := packetBytes + cfg.DataHeaderBytes
	m := 0
	for w := cfg.CWMin + 1; w*2 <= cfg.CWMax+1; w *= 2 {
		m++
	}
	return DCF{
		N:           n,
		W:           cfg.CWMin + 1,
		M:           m,
		Slot:        cfg.SlotTime,
		SIFS:        cfg.SIFS,
		DIFS:        cfg.DIFS(),
		PayloadBits: float64(packetBytes) * 8,
		DataAirtime: cfg.TxDuration(frameBytes, cfg.DataRateBps),
		AckAirtime:  cfg.AckDuration(),
		AckTimeout:  cfg.AckTimeout(),
	}
}

// tau computes the per-slot transmission probability for a given
// conditional collision probability p (Bianchi eq. 9).
func (d DCF) tau(p float64) float64 {
	W := float64(d.W)
	m := float64(d.M)
	num := 2 * (1 - 2*p)
	den := (1-2*p)*(W+1) + p*W*(1-math.Pow(2*p, m))
	return num / den
}

// Solve finds the fixed point (τ, p) with p = 1 − (1−τ)^(N−1) by
// bisection on p. It returns an error for degenerate inputs.
func (d DCF) Solve() (tau, p float64, err error) {
	if d.N < 1 || d.W < 2 {
		return 0, 0, errors.New("model: need N ≥ 1 and W ≥ 2")
	}
	if d.N == 1 {
		return d.tau(0), 0, nil
	}
	f := func(p float64) float64 {
		t := d.tau(p)
		return 1 - math.Pow(1-t, float64(d.N-1)) - p
	}
	lo, hi := 0.0, 0.999999
	if f(lo) < 0 {
		return 0, 0, errors.New("model: no fixed point (f(0) < 0)")
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	p = (lo + hi) / 2
	return d.tau(p), p, nil
}

// Throughput returns the model's aggregate saturation payload throughput
// in bits per second (Bianchi eq. 13, basic access).
func (d DCF) Throughput() (float64, error) {
	tau, _, err := d.Solve()
	if err != nil {
		return 0, err
	}
	n := float64(d.N)
	pTr := 1 - math.Pow(1-tau, n)              // some station transmits
	pS := n * tau * math.Pow(1-tau, n-1) / pTr // exactly one does
	sigma := d.Slot.Seconds()                  // empty slot
	tS := (d.DataAirtime + d.SIFS + d.AckAirtime + d.DIFS).Seconds()
	tC := (d.DataAirtime + d.AckTimeout + d.DIFS).Seconds()

	denom := (1-pTr)*sigma + pTr*pS*tS + pTr*(1-pS)*tC
	return pS * pTr * d.PayloadBits / denom / 1, nil
}
