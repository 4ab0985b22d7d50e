package des

// Ticker repeatedly invokes a handler at a fixed period, with an optional
// per-tick jitter supplied by the caller. It is the building block for
// HELLO beacons and constant-bit-rate sources. Rescheduling rides the
// typed-event path (the Ticker is its own Handler), so a running ticker
// never allocates.
type Ticker struct {
	sim     *Sim
	period  Time
	jitter  func() Time // extra offset added to each tick; may be nil
	fn      func()
	ev      Event
	stopped bool
}

// NewTicker creates a ticker that calls fn every period, starting one
// period (plus jitter) from now. It does not start automatically; call
// Start.
func NewTicker(sim *Sim, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("des: NewTicker with non-positive period")
	}
	return &Ticker{sim: sim, period: period, fn: fn}
}

// WithJitter installs a jitter function whose result is added to each
// tick's delay (useful to desynchronise periodic beacons across nodes).
// It returns the ticker for chaining.
func (t *Ticker) WithJitter(j func() Time) *Ticker {
	t.jitter = j
	return t
}

// Start schedules the first tick after the given initial delay, replacing
// a tick still pending from an earlier Start: a ticker never runs two
// trains.
func (t *Ticker) Start(initial Time) {
	t.stopped = false
	t.ev.Cancel()
	t.schedule(initial)
}

// Stop cancels any pending tick. The ticker can be restarted with Start.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
	t.ev = Event{}
}

func (t *Ticker) schedule(delay Time) {
	if t.jitter != nil {
		delay += t.jitter()
	}
	if delay < 0 {
		delay = 0
	}
	t.ev = t.sim.ScheduleCall(delay, t, 0, 0)
}

// HandleEvent fires one tick and reschedules the next.
func (t *Ticker) HandleEvent(int32, uint32) {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.schedule(t.period)
	}
}
