package des

// Ticker repeatedly invokes a function at a fixed period: the feeders
// and clocks of tests and tools. Rescheduling rides the typed-event path
// (the Ticker is its own Handler), so a running ticker never allocates;
// building one allocates it and fn's closure, which is why the
// simulation's own periodic events — the load clock, mobility steps,
// HELLO beacons — are typed events of the objects that own them.
type Ticker struct {
	sim     *Sim
	period  Time
	fn      func()
	ev      Event
	stopped bool
}

// NewTicker creates a ticker that calls fn every period. It does not
// start automatically; call Start.
func NewTicker(sim *Sim, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("des: NewTicker with non-positive period")
	}
	return &Ticker{sim: sim, period: period, fn: fn}
}

// Start schedules the first tick after the given initial delay, replacing
// a tick still pending from an earlier Start: a ticker never runs two
// trains.
func (t *Ticker) Start(initial Time) {
	t.stopped = false
	t.ev.Cancel()
	t.ev = t.sim.ScheduleCall(initial, t, 0, 0)
}

// Stop cancels any pending tick. The ticker can be restarted with Start.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
	t.ev = Event{}
}

// HandleEvent fires one tick and reschedules the next.
func (t *Ticker) HandleEvent(int32, uint32) {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.ev = t.sim.ScheduleCall(t.period, t, 0, 0)
	}
}
