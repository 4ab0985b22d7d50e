package mac

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
)

func TestEnergyIdleBaseline(t *testing.T) {
	sim, macs, _ := macTestbed(t, DefaultConfig(), geom.Point{X: 0}, geom.Point{X: 200})
	sim.RunUntil(10 * des.Second)
	e := macs[0].Energy()
	want := DefaultEnergyParams().IdleW * 10
	if math.Abs(e.Joules-want) > 1e-9 {
		t.Fatalf("idle node consumed %.4f J in 10 s, want %.4f", e.Joules, want)
	}
	if e.TxTime != 0 || e.RxTime != 0 {
		t.Fatalf("idle node has tx=%v rx=%v", e.TxTime, e.RxTime)
	}
}

func TestEnergyAccountsTransmission(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, _ := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 512), 1) }), 0, 0)
	sim.RunUntil(des.Second)

	sender := macs[0].Energy()
	wantTx := cfg.TxDuration(512+pkt.IPHeaderBytes+pkt.UDPHeaderBytes+cfg.DataHeaderBytes,
		cfg.DataRateBps)
	if sender.TxTime != wantTx {
		t.Fatalf("sender tx time %v, want %v", sender.TxTime, wantTx)
	}
	// The sender also received the ACK.
	if sender.RxTime < cfg.AckDuration() {
		t.Fatalf("sender rx time %v below one ACK airtime", sender.RxTime)
	}
	receiver := macs[1].Energy()
	if receiver.TxTime != cfg.AckDuration() {
		t.Fatalf("receiver tx time %v, want one ACK %v", receiver.TxTime, cfg.AckDuration())
	}
	if receiver.RxTime < wantTx {
		t.Fatalf("receiver rx time %v below the data airtime %v", receiver.RxTime, wantTx)
	}
	// Total time must be conserved.
	total := sender.IdleTime + sender.RxTime + sender.TxTime
	if total != des.Second {
		t.Fatalf("state times sum to %v, want 1 s", total)
	}
	// Energy ordering: the sender paid more than an idle second.
	idleJ := DefaultEnergyParams().IdleW * 1
	if sender.Joules <= idleJ {
		t.Fatalf("sender energy %.4f J not above idle baseline %.4f", sender.Joules, idleJ)
	}
}

func TestEnergyOverhearingCosts(t *testing.T) {
	// A bystander in carrier range pays Rx power while others talk.
	sim, macs, _ := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 400})
	sim.ScheduleCall(0, des.Func(func() {
		for i := 0; i < 20; i++ {
			macs[0].Send(dataPkt(0, 1, 1000), 1)
		}
	}), 0, 0)
	sim.RunUntil(des.Second)
	bystander := macs[2].Energy()
	if bystander.RxTime == 0 {
		t.Fatal("bystander in carrier range recorded no rx time")
	}
	if bystander.TxTime != 0 {
		t.Fatal("bystander transmitted")
	}
	idleOnly := DefaultEnergyParams().IdleW * 1
	if bystander.Joules <= idleOnly {
		t.Fatal("overhearing did not cost energy")
	}
}

// TestCrashMidTxStopsTxEnergy pins the transmit clock against a crash while
// the node's own frame is on the air: the truncated frame's airtime still
// ends, and from then on the dead node draws idle power, not transmit power
// for the whole outage.
func TestCrashMidTxStopsTxEnergy(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, _ := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, pkt.Broadcast, 512), pkt.Broadcast) }), 0, 0)
	crashed := false
	whenTransmitting(sim, macs[0], func() {
		crashed = true
		macs[0].radio.SetDown(true)
		macs[0].Crash()
	})
	sim.RunUntil(5 * des.Second)
	if !crashed {
		t.Fatal("the broadcast never went on the air")
	}
	frame := cfg.TxDuration(512+pkt.IPHeaderBytes+pkt.UDPHeaderBytes+cfg.DataHeaderBytes, cfg.BasicRateBps)
	e := macs[0].Energy()
	if e.TxTime != frame {
		t.Fatalf("crashed sender billed %v of transmit time for one %v frame", e.TxTime, frame)
	}
	if total := e.IdleTime + e.RxTime + e.TxTime; total != 5*des.Second {
		t.Fatalf("state times sum to %v, want 5 s", total)
	}
}
