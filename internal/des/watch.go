package des

import (
	"fmt"
	"sync/atomic"
)

// watchStrideMask gates watchdog publication to every 1024th executed
// event: frequent enough that a live run updates many times per
// wall-clock second, rare enough that the two atomic stores are
// invisible next to event handling.
const watchStrideMask = 1023

// Watch is the lock-free progress channel between a Sim (running on its
// worker goroutine) and a watchdog monitor goroutine. The kernel
// publishes (sim time, executed count) every watchStrideMask+1 events;
// the monitor samples, and when the simulated clock makes no progress
// within a wall-clock budget it calls Abort, which makes the run loop
// panic with a *StallError at its next publication point. The panic is
// recovered by the existing crash containment one level up, so a stalled
// replication surfaces as a poisoned-cell error instead of a hang.
//
// The abort necessarily lands between events: a single handler that
// never returns cannot be killed in-process. What this catches is the
// realistic stall mode — zero-delay event livelock, where events keep
// firing but simulated time stops advancing.
//
// One Watch is shared by all jobs a worker runs in sequence; BeginJob
// fences jobs apart with a generation counter so the monitor never
// blames a fresh job for its predecessor's timestamps.
type Watch struct {
	simNow   atomic.Int64
	executed atomic.Uint64
	gen      atomic.Uint64
	running  atomic.Bool
	abort    atomic.Bool
}

// BeginJob marks the start of a replication: bumps the generation,
// clears any stale abort, and zeroes the progress counters.
func (w *Watch) BeginJob() {
	w.abort.Store(false)
	w.simNow.Store(0)
	w.executed.Store(0)
	w.gen.Add(1)
	w.running.Store(true)
}

// EndJob marks the replication finished (however it ended).
func (w *Watch) EndJob() { w.running.Store(false) }

// Abort asks the running Sim to panic with a *StallError at its next
// publication point. Safe to call from any goroutine.
func (w *Watch) Abort() { w.abort.Store(true) }

// Snapshot returns the current generation, whether a job is running, and
// the last published (sim time, executed count).
func (w *Watch) Snapshot() (gen uint64, running bool, now Time, executed uint64) {
	return w.gen.Load(), w.running.Load(), Time(w.simNow.Load()), w.executed.Load()
}

// publish is called from the Sim's run loop.
func (w *Watch) publish(now Time, executed uint64) {
	w.simNow.Store(int64(now))
	w.executed.Store(executed)
}

// aborted is the run loop's abort poll.
func (w *Watch) aborted() bool { return w.abort.Load() }

// SetWatch attaches (or with nil detaches) a watchdog progress channel.
// The watch survives Reset so a warm engine keeps reporting.
func (s *Sim) SetWatch(w *Watch) { s.watch = w }

// StallError is the panic value raised when a Watch aborts a stalled
// run. The experiments planner's crash containment recovers it into an
// *experiments.PanicError, so callers inspect the message rather than the
// type.
type StallError struct {
	Now      Time   // simulated time the run was stuck at
	Executed uint64 // events executed when the abort landed
}

// Error implements the error interface.
func (e *StallError) Error() string {
	return fmt.Sprintf("des: watchdog abort: simulated time stalled at %v after %d events", e.Now, e.Executed)
}
