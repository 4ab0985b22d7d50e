package mac

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
)

// rtsTestbed builds MACs with RTS/CTS enabled at the given threshold and
// with CS range trimmed to RX range (so hidden terminals exist and the
// handshake has something to fix).
func rtsTestbed(t *testing.T, threshold int, positions ...geom.Point) (*des.Sim, []*Mac, []*upperRec) {
	t.Helper()
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	params := radio.DefaultParams()
	params.CsThreshW = params.RxThreshW
	cfg := DefaultConfig()
	cfg.RTSThreshold = threshold
	master := rng.New(77)
	macs := make([]*Mac, len(positions))
	uppers := make([]*upperRec, len(positions))
	for i, p := range positions {
		r := medium.Attach(p, params)
		macs[i] = New(cfg, sim, r, pkt.NodeID(i), master.Derive(uint64(i)))
		uppers[i] = &upperRec{}
		macs[i].SetUpper(uppers[i])
		startSampling(sim, macs[i])
	}
	return sim, macs, uppers
}

func TestRTSHandshakeDelivers(t *testing.T) {
	sim, macs, uppers := rtsTestbed(t, 100, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 512), 1) }), 0, 0)
	sim.RunUntil(des.Second)
	if len(uppers[1].received) != 1 {
		t.Fatalf("RTS path delivered %d packets", len(uppers[1].received))
	}
	if macs[0].Ctr.TxRTS != 1 {
		t.Fatalf("sender sent %d RTS, want 1", macs[0].Ctr.TxRTS)
	}
	if macs[1].Ctr.TxCTS != 1 {
		t.Fatalf("receiver sent %d CTS, want 1", macs[1].Ctr.TxCTS)
	}
	if macs[1].Ctr.TxAck != 1 {
		t.Fatalf("receiver sent %d ACK, want 1", macs[1].Ctr.TxAck)
	}
	if len(uppers[0].txDone) != 1 || !uppers[0].txDone[0].ok {
		t.Fatalf("sender txDone %+v", uppers[0].txDone)
	}
}

func TestRTSThresholdRespected(t *testing.T) {
	// Frames below the threshold must skip the handshake.
	sim, macs, uppers := rtsTestbed(t, 1000, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 128), 1) }), 0, 0)
	sim.RunUntil(des.Second)
	if macs[0].Ctr.TxRTS != 0 {
		t.Fatal("small frame used RTS")
	}
	if len(uppers[1].received) != 1 {
		t.Fatal("small frame not delivered")
	}
}

func TestBroadcastNeverUsesRTS(t *testing.T) {
	sim, macs, uppers := rtsTestbed(t, 1, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, pkt.Broadcast, 512), pkt.Broadcast) }), 0, 0)
	sim.RunUntil(des.Second)
	if macs[0].Ctr.TxRTS != 0 {
		t.Fatal("broadcast used RTS")
	}
	if len(uppers[1].received) != 1 {
		t.Fatal("broadcast not delivered")
	}
}

func TestRTSToUnreachableRetriesAndFails(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, uppers := rtsTestbed(t, 100, geom.Point{X: 0}, geom.Point{X: 5000})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 512), 1) }), 0, 0)
	sim.RunUntil(5 * des.Second)
	if len(uppers[0].txDone) != 1 || uppers[0].txDone[0].ok {
		t.Fatalf("unreachable RTS txDone %+v", uppers[0].txDone)
	}
	if macs[0].Ctr.TxRTS != uint64(cfg.RetryLimit) {
		t.Fatalf("RTS attempts %d, want %d", macs[0].Ctr.TxRTS, cfg.RetryLimit)
	}
	// The data frame itself must never have been transmitted.
	if macs[0].Ctr.TxData != 0 {
		t.Fatalf("data transmitted %d times without CTS", macs[0].Ctr.TxData)
	}
}

func TestNAVDefersThirdParty(t *testing.T) {
	// B exchanges with A under RTS/CTS. C hears B's CTS (and A's RTS) and
	// must defer its own transmission until the NAV expires, so A's
	// reception survives even though C cannot physically sense A's data
	// transmission... (C is in range of B but that's what NAV is for; here
	// C is in range of both, making the check about timing, not rescue).
	sim, macs, uppers := rtsTestbed(t, 100,
		geom.Point{X: 0},   // A: sender
		geom.Point{X: 200}, // B: receiver
		geom.Point{X: 350}) // C: bystander in range of B only
	var cStarted des.Time
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 1000), 1) }), 0, 0)
	// C queues a frame toward B shortly after A's handshake starts; NAV
	// from B's CTS must hold it back.
	sim.ScheduleCall(500*des.Microsecond, des.Func(func() { macs[2].Send(dataPkt(2, 1, 1000), 1) }), 0, 0)
	_ = cStarted
	sim.RunUntil(2 * des.Second)
	if len(uppers[1].received) != 2 {
		t.Fatalf("receiver got %d packets, want both", len(uppers[1].received))
	}
	// A's exchange must have succeeded without retries: C deferred.
	if macs[0].Ctr.Retries != 0 {
		t.Fatalf("sender A retried %d times despite NAV protection", macs[0].Ctr.Retries)
	}
}

func TestHiddenTerminalRTSReducesDataCollisions(t *testing.T) {
	// Two hidden senders (CS range = RX range, 400 m apart) saturate the
	// middle receiver. With RTS/CTS the long data frames are protected by
	// the CTS NAV; only the short RTS frames collide. Compare delivered
	// counts with and without the handshake under an identical workload.
	run := func(threshold int) (delivered int, retries uint64) {
		sim, macs, uppers := rtsTestbed(t, threshold,
			geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 400})
		const n = 20
		sim.ScheduleCall(0, des.Func(func() {
			for i := 0; i < n; i++ {
				macs[0].Send(dataPkt(0, 1, 1000), 1)
				macs[2].Send(dataPkt(2, 1, 1000), 1)
			}
		}), 0, 0)
		sim.RunUntil(60 * des.Second)
		return len(uppers[1].received), macs[0].Ctr.Retries + macs[2].Ctr.Retries
	}
	deliveredNoRTS, retriesNoRTS := run(0)
	deliveredRTS, retriesRTS := run(100)
	if deliveredRTS < deliveredNoRTS {
		t.Fatalf("RTS delivered fewer packets: %d vs %d", deliveredRTS, deliveredNoRTS)
	}
	if retriesRTS >= retriesNoRTS {
		t.Fatalf("RTS did not reduce retries: %d vs %d", retriesRTS, retriesNoRTS)
	}
}

func TestControlFrameStrings(t *testing.T) {
	rts := &Frame{Type: RTSFrame, Src: 1, Dst: 2, Dur: des.Millisecond}
	cts := &Frame{Type: CTSFrame, Src: 2, Dst: 1, Dur: des.Millisecond}
	if rts.String() == "" || cts.String() == "" {
		t.Fatal("empty control frame strings")
	}
	if RTSFrame.String() != "rts" || CTSFrame.String() != "cts" {
		t.Fatal("frame type strings")
	}
}

func TestRTSTimingConstants(t *testing.T) {
	c := DefaultConfig()
	if c.RTSDuration() <= c.PreambleTime || c.CTSDuration() <= c.PreambleTime {
		t.Fatal("control durations must exceed the preamble")
	}
	if c.CTSTimeout() <= c.CTSDuration() {
		t.Fatal("CTS timeout must cover the CTS airtime")
	}
	if c.usesRTS(10) {
		t.Fatal("threshold 0 must disable RTS")
	}
	c.RTSThreshold = 100
	if !c.usesRTS(100) || c.usesRTS(99) {
		t.Fatal("threshold comparison wrong")
	}
}

// TestStaleRTSCompletionAfterRecovery: an RTS on the air when its sender
// crashes ends after a recovery has put a new unicast in service; the
// MAC does not take it for that frame's RTS and wait for a CTS nobody
// was asked for. The new frame sends its own RTS once the radio is free
// and gets through with no retry.
func TestStaleRTSCompletionAfterRecovery(t *testing.T) {
	sim, macs, uppers := rtsTestbed(t, 100, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 512), 1) }), 0, 0)
	whenTransmitting(sim, macs[0], func() {
		if macs[0].state != accTxRts {
			t.Fatalf("on the air in state %v, want the RTS", macs[0].state)
		}
		macs[0].radio.SetDown(true)
		macs[0].Crash()
		sim.ScheduleCall(10*des.Microsecond, des.Func(func() {
			macs[0].Recover()
			macs[0].radio.SetDown(false)
			macs[0].Send(dataPkt(0, 1, 256), 1)
		}), 0, 0)
	})
	sim.RunUntil(des.Second)
	if macs[0].Ctr.TxRTS != 2 || macs[0].Ctr.Retries != 0 {
		t.Errorf("%d RTS sent with %d retries, want 2 (one before the crash) and none", macs[0].Ctr.TxRTS, macs[0].Ctr.Retries)
	}
	if len(uppers[0].txDone) != 1 || !uppers[0].txDone[0].ok || len(uppers[1].received) != 1 {
		t.Errorf("sender reported %+v, receiver got %d frames: want the new unicast delivered", uppers[0].txDone, len(uppers[1].received))
	}
}
