package mac

// Tests of the pull-model carrier contract: the radio keeps the busy and
// transmit clocks, the MAC reads them, and RadioCarrier reaches a MAC only
// while one of its frames is waiting, deferring or backing off.

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
)

// tapEvent is one callback a listenerTap forwarded: which, when, and the
// MAC's access state once it returned.
type tapEvent struct {
	kind  string // "carrier+", "carrier-", "receive", "txdone"
	at    des.Time
	state accessState
}

// listenerTap sits between a radio and its MAC and logs every callback.
type listenerTap struct {
	mac *Mac
	log []tapEvent
}

func tap(m *Mac) *listenerTap {
	t := &listenerTap{mac: m}
	m.radio.SetListener(t)
	return t
}

func (t *listenerTap) note(kind string) {
	t.log = append(t.log, tapEvent{kind, t.mac.sim.Now(), t.mac.state})
}

func (t *listenerTap) RadioReceive(p any, bytes int, ok bool) {
	t.mac.RadioReceive(p, bytes, ok)
	t.note("receive")
}

func (t *listenerTap) RadioCarrier(busy bool) {
	t.mac.RadioCarrier(busy)
	if busy {
		t.note("carrier+")
	} else {
		t.note("carrier-")
	}
}

func (t *listenerTap) RadioTxDone(p any) {
	t.mac.RadioTxDone(p)
	t.note("txdone")
}

// count returns how many logged callbacks are of one of the kinds.
func (t *listenerTap) count(kinds ...string) int {
	n := 0
	for _, e := range t.log {
		for _, k := range kinds {
			if e.kind == k {
				n++
			}
		}
	}
	return n
}

var _ radio.Listener = (*listenerTap)(nil)

// whenTransmitting polls (every 100 µs) until m's radio is on the air and
// then runs f once.
func whenTransmitting(sim *des.Sim, m *Mac, f func()) {
	var poll func()
	poll = func() {
		if !m.radio.Transmitting() {
			sim.ScheduleCall(100*des.Microsecond, des.Func(poll), 0, 0)
			return
		}
		f()
	}
	sim.ScheduleCall(0, des.Func(poll), 0, 0)
}

// TestIdleBystanderGetsNoCarrierCallbacks: a node in carrier range of a
// busy link, with nothing to send, is never called about the carrier — and
// its energy and busy-fraction figures are exactly what the airtime says
// they must be. The moment it has a frame of its own it hears the edges
// again, and freezes its deferral when the ACK it overhears starts.
func TestIdleBystanderGetsNoCarrierCallbacks(t *testing.T) {
	cfg := DefaultConfig()
	sim, macs, uppers := macTestbed(t, cfg,
		geom.Point{X: 0}, geom.Point{X: 200}, geom.Point{X: 400})
	rxTap, byTap := tap(macs[1]), tap(macs[2])

	// Phase 1: 20 exchanges 0→1, two per load-sampling window, none across
	// a window boundary.
	const exchanges = 20
	sent := 0
	sim.AtTrain(0, 50*des.Millisecond, exchanges, des.Func(func() {
		macs[0].Send(dataPkt(0, 1, 512), 1)
		sent++
	}), 0, 0)
	const phase1 = 1005 * des.Millisecond
	sim.RunUntil(phase1)

	if n := byTap.count("carrier+", "carrier-"); n != 0 {
		t.Fatalf("idle bystander's MAC got %d RadioCarrier calls, want 0", n)
	}
	if n := byTap.count("receive"); n != exchanges {
		t.Fatalf("bystander overheard %d frames, want the %d ACKs", n, exchanges)
	}
	frame := 512 + pkt.IPHeaderBytes + pkt.UDPHeaderBytes + cfg.DataHeaderBytes
	air := cfg.TxDuration(frame, cfg.DataRateBps) + cfg.AckDuration() // SIFS between them is silence
	e := macs[2].Energy()
	if e.RxTime != exchanges*air || e.TxTime != 0 || e.IdleTime != phase1-exchanges*air {
		t.Fatalf("bystander idle/rx/tx = %v/%v/%v, want %v/%v/0",
			e.IdleTime, e.RxTime, e.TxTime, phase1-exchanges*air, exchanges*air)
	}
	p := DefaultEnergyParams()
	if want := p.IdleW*e.IdleTime.Seconds() + p.RxW*e.RxTime.Seconds(); math.Abs(e.Joules-want) > 1e-12 {
		t.Fatalf("bystander energy %v J, want %v", e.Joules, want)
	}
	// Ten full windows, each busy for exactly two exchanges.
	want := 0.0
	for w := 0; w < 10; w++ {
		want = cfg.LoadEWMAAlpha*(float64(2*air)/float64(cfg.LoadSampleInterval)) + (1-cfg.LoadEWMAAlpha)*want
	}
	if got := macs[2].LoadStats().BusyFrac; got != want {
		t.Fatalf("bystander busy fraction %v, want %v", got, want)
	}

	// Phase 2: the bystander gets a frame of its own while 0 is on the air.
	rxTap.log, byTap.log = nil, nil
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, 1, 512), 1) }), 0, 0)
	whenTransmitting(sim, macs[0], func() { macs[2].Send(dataPkt(2, 1, 512), 1) })
	sim.RunUntil(phase1 + 100*des.Millisecond)

	if len(rxTap.log) < 2 || rxTap.log[0].kind != "receive" || rxTap.log[1].kind != "txdone" {
		t.Fatalf("receiver saw %+v, want 0's data then its own ACK's end first", rxTap.log)
	}
	dataEnd, ackEnd := rxTap.log[0].at, rxTap.log[1].at
	wantLog := []tapEvent{
		{"carrier-", dataEnd, accDefer},               // waited for the data frame to end, starts DIFS
		{"carrier+", dataEnd + cfg.SIFS, accWaitIdle}, // the ACK freezes it 10 µs in
		{"receive", ackEnd, accWaitIdle},              // overhears the ACK (delivered before the edge)
		{"carrier-", ackEnd, accDefer},                // and goes again
		{"txdone", 0, accWaitAck},                     // its own frame; no edges asked for since
		{"receive", 0, accIdle},                       // its ACK
	}
	if len(byTap.log) != len(wantLog) {
		t.Fatalf("contending bystander saw %+v, want %+v", byTap.log, wantLog)
	}
	for i, w := range wantLog {
		g := byTap.log[i]
		if g.kind != w.kind || g.state != w.state || (w.at != 0 && g.at != w.at) {
			t.Fatalf("contending bystander callback %d is %+v, want %+v (0 = any time)", i, g, w)
		}
	}
	if last := uppers[1].received[len(uppers[1].received)-1]; last.from != 2 {
		t.Fatalf("last delivery at the receiver is from %v, want the bystander's frame", last.from)
	}
}

// TestCrashMidFrameClocks crashes a sender while its broadcast is on the
// air — once for good, once power-cycled back up 100 µs later, before the
// truncated frame has ended. Either way the radio's transmit clock bills
// the whole frame (it stays on the air), the load estimator counts the
// channel as occupied only up to the crash, and the books balance.
func TestCrashMidFrameClocks(t *testing.T) {
	for _, recoverAfter := range []des.Time{0, 100 * des.Microsecond} {
		cfg := DefaultConfig()
		sim, macs, _ := macTestbed(t, cfg, geom.Point{X: 0}, geom.Point{X: 200})
		own := tap(macs[0])
		var crashAt des.Time
		sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, pkt.Broadcast, 512), pkt.Broadcast) }), 0, 0)
		whenTransmitting(sim, macs[0], func() {
			crashAt = sim.Now()
			macs[0].radio.SetDown(true)
			macs[0].Crash()
			if recoverAfter > 0 {
				sim.ScheduleCall(recoverAfter, des.Func(func() {
					macs[0].Recover()
					macs[0].radio.SetDown(false)
				}), 0, 0)
			}
		})
		const runFor = 150 * des.Millisecond
		sim.RunUntil(runFor)

		if own.count("txdone") != 1 {
			t.Fatalf("recover after %v: sender saw %+v, want one RadioTxDone", recoverAfter, own.log)
		}
		frame := cfg.TxDuration(512+pkt.IPHeaderBytes+pkt.UDPHeaderBytes+cfg.DataHeaderBytes, cfg.BasicRateBps)
		txStart := own.log[len(own.log)-1].at - frame
		if crashAt <= txStart || crashAt+recoverAfter >= txStart+frame {
			t.Fatalf("recover after %v: crash at %v, recovery not inside the frame [%v, %v]",
				recoverAfter, crashAt, txStart, txStart+frame)
		}
		e := macs[0].Energy()
		if e.TxTime != frame || e.RxTime != 0 || e.IdleTime != runFor-frame {
			t.Fatalf("recover after %v: idle/rx/tx = %v/%v/%v, want %v/0/%v",
				recoverAfter, e.IdleTime, e.RxTime, e.TxTime, runFor-frame, frame)
		}
		if got := macs[0].le.occupiedTime(); got != crashAt-txStart {
			t.Fatalf("recover after %v: estimator counts %v occupied, want the %v before the crash",
				recoverAfter, got, crashAt-txStart)
		}
		// One full window has been sampled; it holds all of that.
		want := cfg.LoadEWMAAlpha * (float64(crashAt-txStart) / float64(cfg.LoadSampleInterval))
		if got := macs[0].LoadStats().BusyFrac; got != want {
			t.Fatalf("recover after %v: busy fraction %v, want %v", recoverAfter, got, want)
		}
	}
}

// TestCrashReleasesQueueAndOrphan: a Crash with a full queue and a data
// frame on the air returns the queued frames and payloads to the pools at
// once, and the frame on the air with its payload once RadioTxDone ends
// its airtime — whether the node is still down then or already back up.
// Until then the orphan's payload stays borrowed and HeldPackets counts it.
func TestCrashReleasesQueueAndOrphan(t *testing.T) {
	for _, recoverAfter := range []des.Time{0, 100 * des.Microsecond} {
		sim, macs, uppers := macTestbed(t, DefaultConfig(), geom.Point{X: 0}, geom.Point{X: 200})
		m := macs[0]
		pool := pkt.NewPool()
		pool.SetAudit(true)
		m.SetPool(pool)
		const sent = 10
		sim.ScheduleCall(0, des.Func(func() {
			for seq := 0; seq < sent; seq++ {
				m.Send(pool.Data(0, 1, 512, 0, seq, sim.Now(), 30), 1)
			}
		}), 0, 0)
		var freePkts, freeFrames int
		whenTransmitting(sim, m, func() {
			if got := m.HeldPackets(); got != sent {
				t.Fatalf("recover after %v: MAC holds %d packets before the crash, want %d", recoverAfter, got, sent)
			}
			freePkts, freeFrames = pool.Len(), m.frameFree.Len()
			m.radio.SetDown(true)
			m.Crash()
			if m.orphan == nil {
				t.Fatalf("recover after %v: the frame on the air was not kept as the orphan", recoverAfter)
			}
			if got := pool.Len() - freePkts; got != sent-1 {
				t.Errorf("recover after %v: Crash pooled %d payloads, want the %d queued", recoverAfter, got, sent-1)
			}
			if got := m.frameFree.Len() - freeFrames; got != sent-1 {
				t.Errorf("recover after %v: Crash pooled %d frames, want the %d queued", recoverAfter, got, sent-1)
			}
			if live, held := pool.LiveBorrowed(), m.HeldPackets(); live != 1 || held != 1 {
				t.Errorf("recover after %v: %d borrowed and %d held while the orphan airs, want 1 and 1", recoverAfter, live, held)
			}
			if recoverAfter > 0 {
				sim.ScheduleCall(recoverAfter, des.Func(func() {
					m.Recover()
					m.radio.SetDown(false)
				}), 0, 0)
			}
		})
		sim.RunUntil(150 * des.Millisecond)

		if m.orphan != nil {
			t.Fatalf("recover after %v: the orphan outlived its airtime", recoverAfter)
		}
		if live, held := pool.LiveBorrowed(), m.HeldPackets(); live != 0 || held != 0 {
			t.Errorf("recover after %v: %d borrowed and %d held after the airtime, want 0 and 0", recoverAfter, live, held)
		}
		if got := pool.Len() - freePkts; got != sent {
			t.Errorf("recover after %v: %d payloads pooled in all, want %d", recoverAfter, got, sent)
		}
		if got := m.frameFree.Len() - freeFrames; got != sent {
			t.Errorf("recover after %v: %d frames pooled in all, want %d", recoverAfter, got, sent)
		}
		if df := pool.DoubleFrees(); df != 0 {
			t.Errorf("recover after %v: %d double frees", recoverAfter, df)
		}
		if n := len(uppers[0].txDone); n != 0 {
			t.Errorf("recover after %v: %d MacTxDone reports for discarded frames, want none", recoverAfter, n)
		}
	}
}

// crashSendAfterRecovery is TestCrashMidFrameClocks's set-up with the
// sender power-cycled back up 100 µs into its broadcast and handed next
// at once, while the truncated broadcast — now the orphan — is still on
// the air. It runs 150 ms and returns the testbed.
func crashSendAfterRecovery(t *testing.T, next *pkt.Packet) ([]*Mac, []*upperRec) {
	t.Helper()
	sim, macs, uppers := macTestbed(t, DefaultConfig(), geom.Point{X: 0}, geom.Point{X: 200})
	sim.ScheduleCall(0, des.Func(func() { macs[0].Send(dataPkt(0, pkt.Broadcast, 512), pkt.Broadcast) }), 0, 0)
	whenTransmitting(sim, macs[0], func() {
		macs[0].radio.SetDown(true)
		macs[0].Crash()
		sim.ScheduleCall(100*des.Microsecond, des.Func(func() {
			macs[0].Recover()
			macs[0].radio.SetDown(false)
			macs[0].Send(next, next.Dst)
		}), 0, 0)
	})
	sim.RunUntil(150 * des.Millisecond)
	return macs, uppers
}

// TestOrphanCompletionAfterRecoveryBroadcast: the end of the orphan's
// airtime is not the end of the broadcast a recovery has put in service
// since. That broadcast waits for the radio, goes on the air after the
// orphan, reaches the neighbour and only then is reported done.
func TestOrphanCompletionAfterRecoveryBroadcast(t *testing.T) {
	macs, uppers := crashSendAfterRecovery(t, dataPkt(0, pkt.Broadcast, 64))
	if got := macs[0].Ctr.TxBroadcast; got != 2 {
		t.Errorf("%d broadcasts on the air, want 2 (the orphan and the one sent after recovery)", got)
	}
	if len(uppers[0].txDone) != 1 || !uppers[0].txDone[0].ok {
		t.Fatalf("sender reported %+v, want the second broadcast done once", uppers[0].txDone)
	}
	if len(uppers[1].received) != 1 || uppers[1].received[0].p.Bytes != dataPkt(0, pkt.Broadcast, 64).Bytes {
		t.Errorf("neighbour received %d frames, want the broadcast sent after recovery", len(uppers[1].received))
	}
}

// TestOrphanCompletionAfterRecoveryUnicast: a unicast put in service
// after a recovery does not take the orphan's completion for its own
// transmission and wait for an ACK to a frame never sent: it is sent
// once, acknowledged, and reported done with no retry.
func TestOrphanCompletionAfterRecoveryUnicast(t *testing.T) {
	macs, uppers := crashSendAfterRecovery(t, dataPkt(0, 1, 64))
	if macs[0].Ctr.TxData != 1 || macs[0].Ctr.Retries != 0 {
		t.Errorf("unicast sent %d times with %d retries, want once with none", macs[0].Ctr.TxData, macs[0].Ctr.Retries)
	}
	if len(uppers[0].txDone) != 1 || !uppers[0].txDone[0].ok {
		t.Fatalf("sender reported %+v, want the unicast acknowledged", uppers[0].txDone)
	}
	if len(uppers[1].received) != 1 {
		t.Errorf("neighbour received %d frames, want the unicast", len(uppers[1].received))
	}
}
