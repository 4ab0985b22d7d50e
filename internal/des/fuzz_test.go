package des

import (
	"fmt"
	"testing"

	"clnlr/internal/rng"
)

// oracleSim is the event list this kernel ran on before the indexed heap,
// kept as the differential oracle: a binary min-heap of node pointers
// under (time, sequence) with lazy cancellation — Cancel only marks the
// node, and the run loop discards it when it surfaces. A train is eager
// here: n separate events scheduled back to back, as the sampler's train
// was before the kernel had one. It has no lanes: a lane event is an
// ordinary event. live counts every live event; pending() is what the
// kernel's Pending() must equal, one per live train, and hw its peak after
// each schedule call (PendingHighWater). deadPops counts the discarded
// surfacings the indexed heap no longer has.
type oracleSim struct {
	now      Time
	seq      uint64
	heap     []*oracleNode
	live     int
	hw       int
	executed uint64
	deadPops int
	trains   [][]*oracleNode
}

type oracleNode struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	queued   bool
}

func (n *oracleNode) pending() bool { return n.queued && !n.canceled }

func (a *oracleNode) less(b *oracleNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (o *oracleSim) schedule(delay Time, fn func()) *oracleNode {
	n := &oracleNode{at: o.now + delay, seq: o.seq, fn: fn, queued: true}
	o.seq++
	o.live++
	h := append(o.heap, n)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	o.heap = h
	return n
}

func (o *oracleSim) cancel(n *oracleNode) {
	if n.queued && !n.canceled {
		n.canceled = true
		o.live--
	}
}

// train schedules n events period apart, the first delay from now.
func (o *oracleSim) train(delay, period Time, n int, fn func()) []*oracleNode {
	ticks := make([]*oracleNode, n)
	for k := range ticks {
		ticks[k] = o.schedule(delay+Time(k)*period, fn)
	}
	o.trains = append(o.trains, ticks)
	o.noteHW()
	return ticks
}

// noteHW raises hw to pending() once a schedule call is complete.
func (o *oracleSim) noteHW() { o.hw = max(o.hw, o.pending()) }

// pending is live with each train's unfired ticks counted once.
func (o *oracleSim) pending() int {
	p := o.live
	for _, ticks := range o.trains {
		left := 0
		for _, n := range ticks {
			if n.pending() {
				left++
			}
		}
		if left > 1 {
			p -= left - 1
		}
	}
	return p
}

func (o *oracleSim) pop() *oracleNode {
	h := o.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			j = r
		}
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	o.heap = h
	top.queued = false
	return top
}

// runUntil mirrors Sim.run: clamp says whether the clock moves on to the
// horizon once every event at or before it has fired.
func (o *oracleSim) runUntil(horizon Time, clamp bool) {
	for len(o.heap) > 0 {
		if o.heap[0].at > horizon {
			o.now = horizon
			return
		}
		n := o.pop()
		if n.canceled {
			o.deadPops++
			continue
		}
		o.live--
		o.now = n.at
		n.fn()
		o.executed++
	}
	if clamp && o.now < horizon {
		o.now = horizon
	}
}

func (o *oracleSim) reset() {
	for _, n := range o.heap {
		n.queued = false
	}
	*o = oracleSim{heap: o.heap[:0], deadPops: o.deadPops}
}

// scriptTarget is what queueScript drives: the kernel or the oracle.
type scriptTarget struct {
	schedule func(delay Time, typed bool, fn func()) (cancel func())
	lane     func(delay Time, fn func()) (cancel func())
	train    func(delay, period Time, n int, fn func()) (cancel func())
	runUntil func(horizon Time)
	run      func()
	reset    func()
	state    func() (now Time, pending, hw int, executed uint64)
}

func simTarget(t *testing.T, s *Sim) scriptTarget {
	audit := func(op string) {
		if err := s.AuditQueue(); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
	}
	// Lane handles are taken once per delay and kept across Reset, as the
	// MAC keeps its own. Delays no script uses take all but freeLanes lanes.
	lanes := map[Time]Lane{}
	for i := 0; i < maxLanes-freeLanes; i++ {
		s.Lane(Time(1)<<40 + Time(i))
	}
	return scriptTarget{
		schedule: func(delay Time, typed bool, fn func()) func() {
			var ev Event
			if typed {
				ev = s.ScheduleCall(delay, &funcHandler{fn: fn}, 0, 0)
			} else {
				ev = s.Schedule(delay, fn)
			}
			audit("schedule")
			return func() { ev.Cancel(); audit("cancel") }
		},
		lane: func(delay Time, fn func()) func() {
			l, ok := lanes[delay]
			if !ok {
				l = s.Lane(delay)
				lanes[delay] = l
			}
			ev := l.Call(&funcHandler{fn: fn}, 0, 0)
			audit("lane")
			return func() { ev.Cancel(); audit("cancel") }
		},
		train: func(delay, period Time, n int, fn func()) func() {
			ev := s.AtTrain(s.Now()+delay, period, n, &funcHandler{fn: fn}, 0, 0)
			audit("train")
			return func() { ev.Cancel(); audit("cancel") }
		},
		runUntil: func(h Time) { s.RunUntil(h); audit("RunUntil") },
		run:      func() { s.Run(); audit("Run") },
		reset:    func() { s.Reset(); audit("Reset") },
		state:    func() (Time, int, int, uint64) { return s.Now(), s.Pending(), s.PendingHighWater(), s.Executed() },
	}
}

func oracleTarget(o *oracleSim) scriptTarget {
	return scriptTarget{
		schedule: func(delay Time, _ bool, fn func()) func() {
			n := o.schedule(delay, fn)
			o.noteHW()
			return func() { o.cancel(n) }
		},
		lane: func(delay Time, fn func()) func() {
			n := o.schedule(delay, fn)
			o.noteHW()
			return func() { o.cancel(n) }
		},
		train: func(delay, period Time, n int, fn func()) func() {
			ticks := o.train(delay, period, n, fn)
			return func() {
				for _, n := range ticks {
					o.cancel(n)
				}
			}
		},
		runUntil: func(h Time) { o.runUntil(h, true) },
		run:      func() { o.runUntil(maxTime, false) },
		reset:    o.reset,
		state:    func() (Time, int, int, uint64) { return o.now, o.pending(), o.hw, o.executed },
	}
}

// laneDelay maps a script byte to one of 12 lane delays, multiples of
// 250 µs from zero (few, so lanes hold queues); byte 4 is 1 ms, the delay
// of the typed op's byte 0, so the heap and a lane tie on time.
func laneDelay(v int) Time { return Time(max(v, 0)%12) * 250 * Microsecond }

// freeLanes is how many lanes the kernel target leaves a script: the
// first four delays it uses get one, the rest ride the heap through their
// handles.
const freeLanes = 4

// queueScript interprets a byte string as a
// schedule/lane/train/cancel/run/reset program and executes it against one
// target, returning the exact log: "<event-serial>@<time>" per firing and
// the (clock, pending, high water, executed) state after every cancel, run
// and reset. The same script against the kernel and the oracle must
// produce identical logs — the executable form of the determinism
// contract, and of "Pending counts live events only".
func queueScript(data []byte, tg scriptTarget) []string {
	var (
		log     []string
		cancels []func()
		serial  int
	)
	state := func(tag string) {
		now, pending, hw, executed := tg.state()
		log = append(log, fmt.Sprintf("%s t=%d pending=%d hw=%d exec=%d", tag, int64(now), pending, hw, executed))
	}
	fire := func(id int) func() {
		return func() {
			now, _, _, _ := tg.state()
			log = append(log, fmt.Sprintf("%d@%d", id, int64(now)))
		}
	}
	i := 0
	next := func() int {
		if i >= len(data) {
			return -1
		}
		b := int(data[i])
		i++
		return b
	}
	for {
		op := next()
		if op < 0 {
			break
		}
		switch op % 10 {
		case 0, 1: // closure event; delays from 2 µs to minutes
			d := Time(next()+1) * Time(1<<(uint(next()+1)%20)) * Microsecond
			cancels = append(cancels, tg.schedule(d, false, fire(serial)))
			serial++
		case 2: // typed event
			d := Time(next()+1) * Millisecond
			cancels = append(cancels, tg.schedule(d, true, fire(serial)))
			serial++
		case 3: // cancel an arbitrary handle: pending, fired, cancelled or its own
			if v, n := next(), len(cancels); v >= 0 && n > 0 {
				cancels[v%n]()
				state("cancel")
			}
		case 4: // run forward a bounded slice of time
			now, _, _, _ := tg.state()
			tg.runUntil(now + Time(next()+1)*Millisecond)
			state("run")
		case 5: // occasionally reset the world; old handles stay in play
			if next()%8 == 0 {
				tg.reset()
				state("reset")
			}
		case 6: // an event whose handler cancels another (or itself) as it fires
			d := Time(next()+1) * 100 * Microsecond
			v, id := next(), serial
			serial++
			fired := fire(id)
			cancels = append(cancels, tg.schedule(d, v%2 == 0, func() {
				fired()
				if v >= 0 {
					cancels[v%len(cancels)]()
				}
			}))
		case 7: // a train of up to 7 ticks, period 0 to 1.5 ms; on odd v every
			// tick also cancels a handle, which may be its own train's
			d := Time(next()+1) * 100 * Microsecond
			period := Time(max(next(), 0)%4) * 500 * Microsecond
			n, v, id := max(next(), 0)%8, next(), serial
			serial++
			fired := fire(id)
			cancels = append(cancels, tg.train(d, period, n, func() {
				fired()
				if v >= 0 && v%2 == 1 {
					cancels[v%len(cancels)]()
				}
			}))
		case 8: // a fixed-delay lane event
			cancels = append(cancels, tg.lane(laneDelay(next()), fire(serial)))
			serial++
		case 9: // a lane event whose handler cancels another (or itself) as it fires
			d := laneDelay(next())
			v, id := next(), serial
			serial++
			fired := fire(id)
			cancels = append(cancels, tg.lane(d, func() {
				fired()
				if v >= 0 {
					cancels[v%len(cancels)]()
				}
			}))
		}
	}
	tg.run()
	state("end")
	return log
}

// diffLogs runs one script against both and returns the oracle, so a
// caller can see how much lazy-cancel residue the script produced.
func diffLogs(t *testing.T, data []byte) *oracleSim {
	t.Helper()
	o := &oracleSim{}
	got := queueScript(data, simTarget(t, NewSim()))
	want := queueScript(data, oracleTarget(o))
	if len(got) != len(want) {
		t.Fatalf("log lengths diverged: kernel %d vs oracle %d\nkernel: %v\noracle: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: kernel %q vs oracle %q", i, got[i], want[i])
		}
	}
	return o
}

// FuzzQueueDifferential feeds random op scripts to the indexed heap with
// its fixed-delay lanes and to the lazy-cancel oracle, which has no lanes,
// and requires identical logs, with the kernel's own AuditQueue clean
// after every operation.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 3, 1, 200, 15, 4, 50})
	f.Add([]byte{2, 1, 2, 1, 2, 1, 3, 0, 4, 255, 5, 0})
	src := rng.New(2024)
	long := make([]byte, 512)
	for i := range long {
		long[i] = byte(src.Intn(256))
	}
	f.Add(long)
	// Cancel the root, the last entry and a middle one of a six-event heap,
	// then one handle twice and one after it fired.
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 3, 0, 3, 5, 3, 2, 3, 2, 4, 1, 3, 1, 4, 9})
	// An event that cancels itself as it fires, one that cancels a later
	// one, and a cancel across a reset.
	f.Add([]byte{6, 0, 0, 6, 1, 3, 2, 9, 2, 9, 4, 0, 5, 0, 2, 3, 3, 2, 3, 4, 4, 20})
	// Two trains interleaved with typed events at shared instants, run in
	// slices; one cancelled from outside, then a train whose tick cancels
	// its own train, and a reset with a train queued.
	f.Add([]byte{7, 4, 2, 5, 0, 2, 0, 7, 4, 2, 7, 0, 2, 2, 4, 1, 3, 1, 4, 3, 7, 0, 1, 6, 3, 4, 9, 7, 0, 1, 6, 0, 5, 0, 4, 50})
	// Lanes of 1 ms, 250 µs and 0 beside a typed heap event and a closure
	// at 1 ms scheduled at the same instant — (time, seq) ties across the
	// heap and the lanes — then the same again once the clock has moved,
	// and a fifth delay, which falls back to the heap.
	f.Add([]byte{2, 0, 8, 4, 8, 1, 8, 0, 0, 124, 2, 8, 4, 4, 0, 8, 4, 2, 0, 8, 8, 8, 3, 4, 5})
	// Four events on the 2 ms lane; cancel its head and a middle one from
	// outside and the tail from a 250 µs lane handler, so the second fires
	// behind two stale slots. Then two more, the head cancelled from a
	// handler.
	f.Add([]byte{8, 8, 4, 0, 8, 8, 8, 8, 8, 8, 3, 0, 3, 2, 9, 1, 3, 4, 9, 8, 8, 8, 8, 9, 1, 5, 4, 9})
	// A cancelled lane head, left stale in front of a live event, whose
	// node the next event (on the 2 ms lane) reuses at once; the stale
	// handle is cancelled again, and a heap event ties the 1 ms lane.
	f.Add([]byte{8, 4, 8, 4, 3, 0, 8, 8, 8, 4, 3, 0, 2, 0, 4, 3})
	// Lane handles kept across a Reset that discards queued lane events
	// (one of them set to cancel another); pre-Reset handles go stale.
	f.Add([]byte{8, 4, 8, 8, 9, 4, 0, 5, 0, 8, 4, 8, 8, 3, 0, 3, 4, 4, 3, 8, 4, 4, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		diffLogs(t, data)
	})
}

// TestQueueDifferentialProperty is the always-on slice of the fuzz target:
// seeded random scripts, so `go test` exercises the differential contract
// without the fuzzing engine. The scripts must leave the oracle popping
// cancelled events — the work the indexed heap is checked not to need.
func TestQueueDifferentialProperty(t *testing.T) {
	src := rng.New(7)
	deadPops := 0
	for round := 0; round < 200; round++ {
		n := src.Intn(300)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		deadPops += diffLogs(t, data).deadPops
	}
	if deadPops < 100 {
		t.Fatalf("the scripts made the oracle pop only %d cancelled events; the cancel path is barely exercised", deadPops)
	}
}
