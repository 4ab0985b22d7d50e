package mac

// Validation tests: check the MAC's aggregate behaviour against
// first-principles 802.11 airtime arithmetic, the packet-level equivalent
// of validating a simulator against an analytical model.

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
)

// TestSaturationThroughputMatchesAirtimeModel saturates a single
// contention-free link and compares the delivered packet rate with the
// deterministic per-packet cycle time:
//
//	DIFS + E[backoff] + DATA + SIFS + ACK
//
// With a single sender there are no collisions, so the only stochastic
// term is the mean backoff (CWmin/2 slots).
func TestSaturationThroughputMatchesAirtimeModel(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, uppers := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})

	const payload = 512
	netBytes := payload + pkt.IPHeaderBytes + pkt.UDPHeaderBytes
	frameBytes := netBytes + cfg.DataHeaderBytes

	// Keep the sender's queue non-empty for the whole run.
	const runFor = 20 * des.Second
	sim.AtTrain(0, des.Millisecond, int(runFor/des.Millisecond)+1, des.Func(func() {
		if macs[0].QueueLen() < 10 {
			macs[0].Send(dataPkt(0, 1, payload), 1)
		}
	}), 0, 0)
	sim.RunUntil(runFor)

	delivered := len(uppers[1].received)
	gotRate := float64(delivered) / runFor.Seconds()

	cycle := cfg.DIFS() +
		des.Time(cfg.CWMin/2)*cfg.SlotTime +
		cfg.TxDuration(frameBytes, cfg.DataRateBps) +
		cfg.SIFS + cfg.AckDuration()
	wantRate := 1 / cycle.Seconds()

	if math.Abs(gotRate-wantRate)/wantRate > 0.05 {
		t.Fatalf("saturation rate %.1f pkt/s deviates from airtime model %.1f pkt/s by >5%%",
			gotRate, wantRate)
	}
	if macs[0].Ctr.Retries != 0 {
		t.Fatalf("clean link retried %d times", macs[0].Ctr.Retries)
	}
}

// TestBroadcastSaturationRate does the same for broadcast frames (no ACK,
// basic rate, no retries): cycle = DIFS + E[backoff] + DATA(basic).
func TestBroadcastSaturationRate(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, uppers := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})

	const payload = 100
	netBytes := payload + pkt.IPHeaderBytes + pkt.UDPHeaderBytes
	frameBytes := netBytes + cfg.DataHeaderBytes

	const runFor = 20 * des.Second
	sim.AtTrain(0, des.Millisecond, int(runFor/des.Millisecond)+1, des.Func(func() {
		if macs[0].QueueLen() < 10 {
			macs[0].Send(dataPkt(0, pkt.Broadcast, payload), pkt.Broadcast)
		}
	}), 0, 0)
	sim.RunUntil(runFor)

	gotRate := float64(len(uppers[1].received)) / runFor.Seconds()
	cycle := cfg.DIFS() +
		des.Time(cfg.CWMin/2)*cfg.SlotTime +
		cfg.TxDuration(frameBytes, cfg.BasicRateBps)
	wantRate := 1 / cycle.Seconds()
	if math.Abs(gotRate-wantRate)/wantRate > 0.05 {
		t.Fatalf("broadcast rate %.1f pkt/s deviates from model %.1f pkt/s", gotRate, wantRate)
	}
}

// TestTwoContendersShareFairly saturates two senders toward one receiver:
// DCF's uniform backoff must split the channel approximately evenly.
func TestTwoContendersShareFairly(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, uppers := macTestbed(t, cfg,
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 100, Y: 170})
	const runFor = 30 * des.Second
	feed := func(m *Mac, src pkt.NodeID) {
		sim.AtTrain(0, des.Millisecond, int(runFor/des.Millisecond)+1, des.Func(func() {
			if m.QueueLen() < 10 {
				m.Send(dataPkt(src, 1, 512), 1)
			}
		}), 0, 0)
	}
	feed(macs[0], 0)
	feed(macs[2], 2)
	sim.RunUntil(runFor)

	var from0, from2 int
	for _, r := range uppers[1].received {
		switch r.from {
		case 0:
			from0++
		case 2:
			from2++
		}
	}
	total := from0 + from2
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	share := float64(from0) / float64(total)
	if share < 0.4 || share > 0.6 {
		t.Fatalf("unfair channel split: %d vs %d (share %.2f)", from0, from2, share)
	}
}

// TestAirtimeConservation checks that the busy fraction observed by a
// bystander approximates the airtime actually transmitted: the channel
// cannot be busy more than the sum of frame durations plus SIFS gaps.
func TestAirtimeConservation(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, _ := macTestbed(t, cfg,
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 100, Y: 100})
	// A steady 20 pkt/s across the whole run keeps the busy-fraction EWMA
	// in equilibrium (it decays within ~1 s once traffic stops).
	sent := 0
	sim.AtTrain(0, 50*des.Millisecond, 201, des.Func(func() {
		macs[0].Send(dataPkt(0, 1, 512), 1)
		sent++
	}), 0, 0)
	sim.RunUntil(10 * des.Second)

	// Airtime per exchange as seen by the bystander: DATA + ACK (+ SIFS).
	netBytes := 512 + pkt.IPHeaderBytes + pkt.UDPHeaderBytes
	per := cfg.TxDuration(netBytes+cfg.DataHeaderBytes, cfg.DataRateBps) +
		cfg.SIFS + cfg.AckDuration()
	wantBusy := float64(sent) * per.Seconds() / 10.0

	got := macs[2].LoadStats().BusyFrac
	// The EWMA lags and the last interval may be partial: allow ±40%.
	if got < wantBusy*0.6 || got > wantBusy*1.4 {
		t.Fatalf("bystander busy fraction %.4f vs airtime accounting %.4f", got, wantBusy)
	}
}
