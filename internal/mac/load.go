package mac

import (
	"clnlr/internal/des"
	"clnlr/internal/radio"
	"clnlr/internal/stats"
)

// LoadStats is the cross-layer measurement the MAC exposes to the routing
// layer — the information channel that gives CLNLR its name. All values
// are smoothed (EWMA over LoadSampleInterval windows) and lie in [0,1].
type LoadStats struct {
	// QueueOcc is the smoothed interface-queue occupancy (time-averaged
	// queue length divided by capacity).
	QueueOcc float64
	// BusyFrac is the smoothed fraction of time the channel was occupied
	// (carrier busy or this node transmitting).
	BusyFrac float64
	// Load is the combined local-load figure
	// QueueLoadWeight·QueueOcc + (1−QueueLoadWeight)·BusyFrac.
	Load float64
}

// loadEstimator samples queue occupancy and channel busy time each window
// and maintains their EWMAs. Busy time is the growth over the window of the
// radio's own state clock (carrier busy or transmitting).
type loadEstimator struct {
	cfg   *Config
	sim   *des.Sim
	radio *radio.Radio

	queueTW stats.TimeWeighted // queue length, time-weighted within window
	qCap    float64

	windowStart des.Time
	busyAtStart des.Time // occupiedTime() at windowStart
	// A crashed node's channel counts as unoccupied, but a frame the crash
	// truncates stays on the air, and on the radio's transmit clock, to its
	// end: truncatedAt is when such a crash struck (if truncated), cut the
	// airtime radiated after crashes so far.
	truncated   bool
	truncatedAt des.Time
	cut         des.Time

	ewmaQueue float64
	ewmaBusy  float64
}

// init (re-)initialises the estimator in place; cfg must outlive the
// estimator (the Mac passes a pointer to its own config field so a config
// swap on Reset is picked up automatically).
func (le *loadEstimator) init(cfg *Config, sim *des.Sim, r *radio.Radio) {
	*le = loadEstimator{cfg: cfg, sim: sim, radio: r, qCap: float64(cfg.QueueCap)}
	le.queueTW.Reset(int64(sim.Now()), 0)
	le.windowStart = sim.Now()
	le.busyAtStart = le.occupiedTime()
}

// setQueueLen records an interface-queue length change.
func (le *loadEstimator) setQueueLen(n int) {
	le.queueTW.Set(int64(le.sim.Now()), float64(n))
}

// occupiedTime returns how long the channel has been occupied (carrier
// busy or own transmission in progress) while the node was up.
func (le *loadEstimator) occupiedTime() des.Time {
	_, rx, tx := le.radio.StateTimes()
	t := rx + tx - le.cut
	if le.truncated {
		t -= le.sim.Now() - le.truncatedAt
	}
	return t
}

// truncate notes a crash; it matters only if an own frame is on the air.
func (le *loadEstimator) truncate() {
	if le.radio.Transmitting() && !le.truncated {
		le.truncated, le.truncatedAt = true, le.sim.Now()
	}
}

// settle closes the books on a truncated frame when its airtime ends.
func (le *loadEstimator) settle() {
	if le.truncated {
		le.truncated = false
		le.cut += le.sim.Now() - le.truncatedAt
	}
}

// sample closes the current window and folds it into the EWMAs. It reads
// only this node's state clock and queue integral and schedules nothing,
// so the order in which a network's estimators are sampled at one instant
// cannot show in any of them.
func (le *loadEstimator) sample() {
	now := le.sim.Now()
	window := now - le.windowStart
	if window <= 0 {
		return
	}
	occupied := le.occupiedTime()
	busyFrac := float64(occupied-le.busyAtStart) / float64(window)
	if busyFrac > 1 {
		busyFrac = 1
	}
	qOcc := le.queueTW.Avg(int64(now)) / le.qCap
	if qOcc > 1 {
		qOcc = 1
	}

	a := le.cfg.LoadEWMAAlpha
	le.ewmaBusy = a*busyFrac + (1-a)*le.ewmaBusy
	le.ewmaQueue = a*qOcc + (1-a)*le.ewmaQueue

	le.busyAtStart = occupied
	le.windowStart = now
	le.queueTW.Reset(int64(now), le.queueTW.Value())
}

// stats returns the current smoothed measurements.
func (le *loadEstimator) stats() LoadStats {
	w := le.cfg.QueueLoadWeight
	return LoadStats{
		QueueOcc: le.ewmaQueue,
		BusyFrac: le.ewmaBusy,
		Load:     w*le.ewmaQueue + (1-w)*le.ewmaBusy,
	}
}

// Counters exposes the MAC's event counts for the measurement layer.
type Counters struct {
	// Enqueued / DroppedQueueFull count interface-queue admissions and
	// drop-tail losses.
	Enqueued         uint64
	DroppedQueueFull uint64
	// TxData / TxBroadcast / TxAck / TxRTS / TxCTS count transmission
	// attempts by class (TxData counts every retry separately).
	TxData      uint64
	TxBroadcast uint64
	TxAck       uint64
	TxRTS       uint64
	TxCTS       uint64
	// Retries counts unicast retransmissions; DroppedRetryLimit counts
	// frames abandoned after RetryLimit attempts.
	Retries           uint64
	DroppedRetryLimit uint64
	// RxDelivered counts frames passed up; RxDuplicates counts unicast
	// duplicates filtered; RxCorrupted counts frames that arrived
	// damaged by collision.
	RxDelivered  uint64
	RxDuplicates uint64
	RxCorrupted  uint64
	// DroppedDown counts packets submitted while the node was crashed.
	DroppedDown uint64
}

// Fold reports every counter once, under its report name, to add — the
// one list of them the measurement harness reads (adding a counter is a
// field and a line here).
func (c *Counters) Fold(add func(name string, v uint64)) {
	add("mac/enqueued", c.Enqueued)
	add("mac/dropped-queue-full", c.DroppedQueueFull)
	add("mac/tx-data", c.TxData)
	add("mac/tx-broadcast", c.TxBroadcast)
	add("mac/tx-ack", c.TxAck)
	add("mac/tx-rts", c.TxRTS)
	add("mac/tx-cts", c.TxCTS)
	add("mac/retries", c.Retries)
	add("mac/dropped-retry-limit", c.DroppedRetryLimit)
	add("mac/rx-delivered", c.RxDelivered)
	add("mac/rx-duplicates", c.RxDuplicates)
	add("mac/rx-corrupted", c.RxCorrupted)
	add("mac/dropped-down", c.DroppedDown)
}
