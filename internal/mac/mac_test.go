package mac

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

// upperRec records network-layer callbacks.
type upperRec struct {
	received []struct {
		p    *pkt.Packet
		from pkt.NodeID
	}
	txDone []struct {
		p   *pkt.Packet
		dst pkt.NodeID
		ok  bool
	}
}

func (u *upperRec) MacReceive(p *pkt.Packet, from pkt.NodeID) {
	u.received = append(u.received, struct {
		p    *pkt.Packet
		from pkt.NodeID
	}{p, from})
}

func (u *upperRec) MacTxDone(p *pkt.Packet, dst pkt.NodeID, ok bool) {
	u.txDone = append(u.txDone, struct {
		p   *pkt.Packet
		dst pkt.NodeID
		ok  bool
	}{p, dst, ok})
}

// startSampling gives one MAC a load-sampling train of its own, with more
// ticks than any test runs — a per-MAC clock like the ones the
// network-wide clock in node.StartAll replaced, and all a bare-MAC
// testbed needs.
func startSampling(sim *des.Sim, m *Mac) {
	sim.AtTrain(m.LoadSampleInterval(), m.LoadSampleInterval(), 1<<30, des.Func(m.SampleLoad), 0, 0)
}

// macTestbed builds a line of nodes with full MAC stacks.
func macTestbed(t *testing.T, cfg Config, positions ...geom.Point) (*des.Sim, []*Mac, []*upperRec) {
	t.Helper()
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	master := rng.New(12345)
	macs := make([]*Mac, len(positions))
	uppers := make([]*upperRec, len(positions))
	for i, p := range positions {
		r := medium.Attach(p, radio.DefaultParams())
		macs[i] = New(cfg, sim, r, pkt.NodeID(i), master.Derive(uint64(i)))
		uppers[i] = &upperRec{}
		macs[i].SetUpper(uppers[i])
		startSampling(sim, macs[i])
	}
	return sim, macs, uppers
}

func dataPkt(src, dst pkt.NodeID, bytes int) *pkt.Packet {
	return nilPool.Data(src, dst, bytes, 0, 0, 0, 30)
}

func TestUnicastDeliveryAndAck(t *testing.T) {
	sim, macs, uppers := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200})
	p := dataPkt(0, 1, 512)
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(p, 1) }), 0, 0)
	sim.RunUntil(des.Second)

	if len(uppers[1].received) != 1 {
		t.Fatalf("receiver got %d packets, want 1", len(uppers[1].received))
	}
	if uppers[1].received[0].from != 0 {
		t.Fatalf("from = %v", uppers[1].received[0].from)
	}
	if len(uppers[0].txDone) != 1 || !uppers[0].txDone[0].ok {
		t.Fatalf("sender txDone %+v", uppers[0].txDone)
	}
	if macs[1].Ctr.TxAck != 1 {
		t.Fatalf("receiver sent %d ACKs, want 1", macs[1].Ctr.TxAck)
	}
	if macs[0].Ctr.Retries != 0 {
		t.Fatalf("clean channel caused %d retries", macs[0].Ctr.Retries)
	}
}

func TestUnicastToUnreachableFailsAfterRetries(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, uppers := macTestbed(t, cfg,
		geom.Point{X: 0}, geom.Point{X: 5000})
	p := dataPkt(0, 1, 512)
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(p, 1) }), 0, 0)
	sim.RunUntil(5 * des.Second)

	if len(uppers[0].txDone) != 1 {
		t.Fatalf("txDone count %d", len(uppers[0].txDone))
	}
	if uppers[0].txDone[0].ok {
		t.Fatal("unreachable unicast reported success")
	}
	if macs[0].Ctr.TxData != uint64(cfg.RetryLimit) {
		t.Fatalf("attempts %d, want %d", macs[0].Ctr.TxData, cfg.RetryLimit)
	}
	if macs[0].Ctr.DroppedRetryLimit != 1 {
		t.Fatalf("retry-limit drops %d", macs[0].Ctr.DroppedRetryLimit)
	}
}

func TestBroadcastReachesAllNeighbours(t *testing.T) {
	sim, macs, uppers := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: -200}, geom.Point{X: 1000})
	p := dataPkt(0, pkt.Broadcast, 64)
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(p, pkt.Broadcast) }), 0, 0)
	sim.RunUntil(des.Second)

	if len(uppers[1].received) != 1 || len(uppers[2].received) != 1 {
		t.Fatalf("in-range receivers got %d/%d", len(uppers[1].received), len(uppers[2].received))
	}
	if len(uppers[3].received) != 0 {
		t.Fatal("out-of-range node received broadcast")
	}
	if len(uppers[0].txDone) != 1 || !uppers[0].txDone[0].ok {
		t.Fatalf("broadcast txDone %+v", uppers[0].txDone)
	}
	// Broadcasts must not be acknowledged.
	if macs[1].Ctr.TxAck != 0 || macs[2].Ctr.TxAck != 0 {
		t.Fatal("broadcast was ACKed")
	}
}

func TestBroadcastDeliversSharedPayload(t *testing.T) {
	// Broadcast deliveries intentionally share the sender's packet
	// object across every receiver (the Upper contract declares it
	// immutable); the MAC must not burn a clone per receiver.
	sim, macs, uppers := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: -200})
	p := nilPool.RREQ(pkt.RREQBody{Origin: 0, Target: 9, ID: 1}, 0, 30)
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(p, pkt.Broadcast) }), 0, 0)
	sim.RunUntil(des.Second)

	r1 := uppers[1].received[0].p
	r2 := uppers[2].received[0].p
	if r1 != p || r2 != p {
		t.Fatal("broadcast receivers did not share the sender's packet")
	}
}

func TestQueueDropTail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 5
	sim, macs, _ := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() {
		for i := 0; i < 20; i++ {
			macs[0].Send(dataPkt(0, 1, 512), 1)
		}
	}), 0, 0)
	sim.RunUntil(10 * des.Second)
	if macs[0].Ctr.DroppedQueueFull == 0 {
		t.Fatal("overfilled queue dropped nothing")
	}
	if macs[0].Ctr.Enqueued+macs[0].Ctr.DroppedQueueFull != 20 {
		t.Fatalf("enqueued %d + dropped %d != 20",
			macs[0].Ctr.Enqueued, macs[0].Ctr.DroppedQueueFull)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	sim, macs, uppers := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200})
	const n = 30
	sim.ScheduleCall(0, des.Func(func() {
		for i := 0; i < n; i++ {
			macs[0].Send(dataPkt(0, 1, 512), 1)
		}
	}), 0, 0)
	sim.RunUntil(10 * des.Second)
	if len(uppers[1].received) != n {
		t.Fatalf("delivered %d of %d queued packets", len(uppers[1].received), n)
	}
}

func TestContentionBothSendersSucceed(t *testing.T) {
	// Two senders in carrier-sense range contend for the same receiver;
	// CSMA/CA with ACK-triggered retries must deliver everything.
	sim, macs, uppers := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 100, Y: 100})
	const n = 15
	sim.ScheduleCall(0, des.Func(func() {
		for i := 0; i < n; i++ {
			macs[0].Send(dataPkt(0, 1, 512), 1)
			macs[2].Send(dataPkt(2, 1, 512), 1)
		}
	}), 0, 0)
	sim.RunUntil(30 * des.Second)
	if len(uppers[1].received) != 2*n {
		t.Fatalf("receiver got %d packets, want %d", len(uppers[1].received), 2*n)
	}
}

func TestHiddenTerminalRecoveredByRetries(t *testing.T) {
	// CS range trimmed to RX range: the two outer senders are hidden from
	// each other. Collisions happen at the middle receiver, but the
	// retransmission machinery must still deliver all unicast traffic.
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	params := radio.DefaultParams()
	params.CsThreshW = params.RxThreshW
	master := rng.New(5)
	cfg := DefaultConfig()
	positions := []geom.Point{{X: 0}, {X: 200}, {X: 400}}
	macs := make([]*Mac, 3)
	uppers := make([]*upperRec, 3)
	for i, p := range positions {
		r := medium.Attach(p, params)
		macs[i] = New(cfg, sim, r, pkt.NodeID(i), master.Derive(uint64(i)))
		uppers[i] = &upperRec{}
		macs[i].SetUpper(uppers[i])
		startSampling(sim, macs[i])
	}
	const n = 10
	sim.ScheduleCall(0, des.Func(func() {
		for i := 0; i < n; i++ {
			macs[0].Send(dataPkt(0, 1, 512), 1)
			macs[2].Send(dataPkt(2, 1, 512), 1)
		}
	}), 0, 0)
	sim.RunUntil(60 * des.Second)
	delivered := len(uppers[1].received)
	if delivered < 2*n-2 { // allow a couple of retry-limit losses
		t.Fatalf("hidden-terminal scenario delivered only %d of %d", delivered, 2*n)
	}
	if macs[0].Ctr.Retries+macs[2].Ctr.Retries == 0 {
		t.Fatal("no retries recorded despite hidden terminals")
	}
	if macs[1].Ctr.RxDuplicates == 0 && macs[1].Ctr.RxCorrupted == 0 {
		t.Fatal("no collision evidence at the middle node")
	}
}

func TestLoadEstimatorTracksTraffic(t *testing.T) {
	sim, macs, _ := macTestbed(t, DefaultConfig(),
		geom.Point{X: 0}, geom.Point{X: 200})
	// Saturate node 0 for two seconds.
	tick := sim.AtTrain(0, 5*des.Millisecond, 401, des.Func(func() {
		macs[0].Send(dataPkt(0, 1, 1000), 1)
	}), 0, 0)
	sim.RunUntil(2 * des.Second)
	tick.Cancel()

	busyLoaded := macs[0].LoadStats()
	if busyLoaded.BusyFrac <= 0.2 {
		t.Fatalf("busy fraction %.3f under saturation, want > 0.2", busyLoaded.BusyFrac)
	}
	if busyLoaded.Load <= 0 || busyLoaded.Load > 1 {
		t.Fatalf("combined load %.3f out of (0,1]", busyLoaded.Load)
	}
	// The idle bystander must also see a busy channel but an empty queue.
	bystander := macs[1].LoadStats()
	if bystander.BusyFrac <= 0.2 {
		t.Fatalf("bystander busy fraction %.3f, want > 0.2", bystander.BusyFrac)
	}
	// Let the channel drain; load must decay toward zero.
	sim.RunUntil(12 * des.Second)
	drained := macs[0].LoadStats()
	if drained.Load >= busyLoaded.Load/2 {
		t.Fatalf("load did not decay: %.3f -> %.3f", busyLoaded.Load, drained.Load)
	}
}

func TestConfigDerivedTimings(t *testing.T) {
	c := DefaultConfig()
	if c.DIFS() != 50*des.Microsecond {
		t.Fatalf("DIFS = %v", c.DIFS())
	}
	// ACK: 192 µs preamble + 14 B at 1 Mb/s = 112 µs → 304 µs.
	if c.AckDuration() != 304*des.Microsecond {
		t.Fatalf("AckDuration = %v", c.AckDuration())
	}
	// 512 B at 2 Mb/s = 2048 µs + 192 µs preamble.
	if got := c.TxDuration(512, c.DataRateBps); got != 2240*des.Microsecond {
		t.Fatalf("TxDuration(512) = %v", got)
	}
	if c.EIFS() <= c.DIFS() {
		t.Fatal("EIFS must exceed DIFS")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, int) {
		sim, macs, uppers := macTestbed(t, DefaultConfig(),
			geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 100, Y: 150})
		sim.ScheduleCall(0, des.Func(func() {
			for i := 0; i < 10; i++ {
				macs[0].Send(dataPkt(0, 1, 512), 1)
				macs[2].Send(dataPkt(2, 1, 512), 1)
			}
		}), 0, 0)
		sim.RunUntil(20 * des.Second)
		return macs[0].Ctr.TxData, macs[2].Ctr.Retries, len(uppers[1].received)
	}
	a1, a2, a3 := run()
	b1, b2, b3 := run()
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("identical runs diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, a2, a3, b1, b2, b3)
	}
}

func TestFrameStrings(t *testing.T) {
	f := &Frame{Type: AckFrame, Src: 1, Dst: 2}
	if f.String() == "" {
		t.Fatal("empty ACK string")
	}
	d := &Frame{Type: DataFrame, Src: 1, Dst: 2, Payload: dataPkt(1, 2, 10)}
	if d.String() == "" {
		t.Fatal("empty data string")
	}
	if DataFrame.String() != "data" || AckFrame.String() != "ack" {
		t.Fatal("frame type strings")
	}
	if FrameType(9).String() == "" {
		t.Fatal("unknown frame type string")
	}
}

func BenchmarkSaturatedLink(b *testing.B) {
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	master := rng.New(1)
	cfg := DefaultConfig()
	var macs []*Mac
	for i, p := range []geom.Point{{X: 0}, {X: 200}} {
		r := medium.Attach(p, radio.DefaultParams())
		m := New(cfg, sim, r, pkt.NodeID(i), master.Derive(uint64(i)))
		m.SetUpper(&upperRec{})
		startSampling(sim, m)
		macs = append(macs, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 512), 1) }), 0, 0)
		sim.RunUntil(sim.Now() + 10*des.Millisecond)
	}
}

func TestControlPriorityQueueing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ControlPriority = true
	sim, macs, uppers := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() {
		// Three data packets first, then one control packet: the control
		// packet must overtake the queued (not yet transmitted) data.
		for i := 0; i < 3; i++ {
			macs[0].Send(dataPkt(0, 1, 1000), 1)
		}
		macs[0].Send(nilPool.RREQ(pkt.RREQBody{Origin: 0, Target: 9, ID: 1}, sim.Now(), 10),
			pkt.Broadcast)
	}), 0, 0)
	sim.RunUntil(des.Second)
	if len(uppers[1].received) != 4 {
		t.Fatalf("received %d frames", len(uppers[1].received))
	}
	// The first frame was already in service when the RREQ arrived, so the
	// RREQ is delivered second.
	if uppers[1].received[1].p.Kind != pkt.RREQ {
		order := make([]pkt.Kind, 0, 4)
		for _, r := range uppers[1].received {
			order = append(order, r.p.Kind)
		}
		t.Fatalf("control packet did not jump the queue: order %v", order)
	}
}

func TestControlPriorityOffKeepsFIFO(t *testing.T) {
	sim, macs, uppers := macTestbed(t, DefaultConfig(), geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() {
		for i := 0; i < 3; i++ {
			macs[0].Send(dataPkt(0, 1, 1000), 1)
		}
		macs[0].Send(nilPool.RREQ(pkt.RREQBody{Origin: 0, Target: 9, ID: 1}, sim.Now(), 10),
			pkt.Broadcast)
	}), 0, 0)
	sim.RunUntil(des.Second)
	if len(uppers[1].received) != 4 {
		t.Fatalf("received %d frames", len(uppers[1].received))
	}
	if uppers[1].received[3].p.Kind != pkt.RREQ {
		t.Fatal("FIFO order violated without ControlPriority")
	}
}
