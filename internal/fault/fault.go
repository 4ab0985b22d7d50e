// Package fault provides the deterministic fault-injection models: node
// churn (crash/recover schedules) and per-link burst loss (a two-state
// Gilbert–Elliott process). Both derive every draw from the run seed, so a
// faulty run is exactly as reproducible as a fault-free one — the same
// seed produces the same crashes, the same recoveries and the same lost
// frames, on the fast and the reference radio path alike.
package fault

import (
	"cmp"
	"fmt"
	"slices"

	"clnlr/internal/des"
	"clnlr/internal/rng"
)

// Config declares the fault processes of one scenario. The zero value
// disables everything (no RNG is consumed and no events are scheduled, so
// a fault-free run is bit-identical to one on a build without this
// package).
type Config struct {
	// Node churn: when MeanUpTime > 0, every node alternates between up
	// and down phases. Phase lengths are drawn uniformly from
	// [0.5, 1.5]× the respective mean, per node, from a stream derived
	// from the run seed — so the schedule is fixed before the run starts
	// and independent of event interleaving.
	MeanUpTime   des.Time
	MeanDownTime des.Time // defaults to 10 s when zero and churn is on

	// Schedule lists explicit crash/recover events applied in addition to
	// (or instead of) the drawn churn — the handle targeted tests use to
	// kill a specific node at a specific time.
	Schedule []NodeEvent

	// Link is the Gilbert–Elliott burst-loss process layered onto frame
	// delivery.
	Link LinkParams
}

// NodeEvent is one point on a node's crash/recover schedule.
type NodeEvent struct {
	Node int
	At   des.Time
	Up   bool // true = recover, false = crash
}

// LinkParams parameterises the Gilbert–Elliott two-state chain evaluated
// per directed link. The chain is time-slotted: each link sits in a good
// or bad state, switching at Slot granularity with probabilities chosen
// so the mean sojourn times are MeanGood and MeanBad; frames are lost
// with probability LossGood or LossBad according to the state at their
// arrival instant. The zero value disables impairment.
type LinkParams struct {
	MeanGood des.Time
	MeanBad  des.Time
	LossGood float64
	LossBad  float64
	Slot     des.Time // state-change granularity; defaults to 10 ms
}

// Enabled reports whether the impairment process does anything.
func (p LinkParams) Enabled() bool {
	return p.MeanBad > 0 && (p.LossBad > 0 || p.LossGood > 0)
}

// ChurnEnabled reports whether any crash/recover events can occur.
func (c Config) ChurnEnabled() bool {
	return c.MeanUpTime > 0 || len(c.Schedule) > 0
}

// Validate checks the configuration for out-of-range parameters.
func (c Config) Validate() error {
	if c.MeanUpTime < 0 {
		return fmt.Errorf("fault: negative MeanUpTime")
	}
	if c.MeanDownTime < 0 {
		return fmt.Errorf("fault: negative MeanDownTime")
	}
	for _, ev := range c.Schedule {
		if ev.At < 0 {
			return fmt.Errorf("fault: schedule event for node %d at negative time", ev.Node)
		}
		if ev.Node < 0 {
			return fmt.Errorf("fault: schedule event for negative node %d", ev.Node)
		}
	}
	p := c.Link
	if p.MeanGood < 0 || p.MeanBad < 0 || p.Slot < 0 {
		return fmt.Errorf("fault: negative link-impairment time parameter")
	}
	if p.Enabled() && p.MeanGood <= 0 {
		return fmt.Errorf("fault: link impairment needs positive MeanGood")
	}
	if p.LossGood < 0 || p.LossGood > 1 {
		return fmt.Errorf("fault: LossGood %v outside [0,1]", p.LossGood)
	}
	if p.LossBad < 0 || p.LossBad > 1 {
		return fmt.Errorf("fault: LossBad %v outside [0,1]", p.LossBad)
	}
	return nil
}

// DrawSchedule materialises the full crash/recover event list for n nodes
// over [0, horizon) in dst's storage (dst[:0], grown as needed): the
// drawn churn (one independent stream per node, Derive(i) from src)
// merged with the explicit Schedule entries (events outside [0, horizon)
// or naming nodes outside [0, n) are dropped). The result is sorted by
// (At, Node, recover-before-crash) so scheduling order — and therefore
// the DES sequence numbering — is deterministic.
func (c Config) DrawSchedule(dst []NodeEvent, n int, horizon des.Time, src *rng.Source) []NodeEvent {
	events := dst[:0]
	if c.MeanUpTime > 0 {
		down := c.MeanDownTime
		if down <= 0 {
			down = 10 * des.Second
		}
		var s rng.Source
		for i := 0; i < n; i++ {
			src.DeriveInto(&s, uint64(i))
			t := des.Time(s.Uniform(0.5, 1.5) * float64(c.MeanUpTime))
			for t < horizon {
				events = append(events, NodeEvent{Node: i, At: t, Up: false})
				dt := des.Time(s.Uniform(0.5, 1.5) * float64(down))
				if t+dt < horizon {
					events = append(events, NodeEvent{Node: i, At: t + dt, Up: true})
				}
				t += dt + des.Time(s.Uniform(0.5, 1.5)*float64(c.MeanUpTime))
			}
		}
	}
	for _, ev := range c.Schedule {
		if ev.Node < 0 || ev.Node >= n || ev.At < 0 || ev.At >= horizon {
			continue
		}
		events = append(events, ev)
	}
	// Events equal in all three keys are equal values, so any correct
	// sort gives one order.
	slices.SortFunc(events, func(a, b NodeEvent) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		if a.Node != b.Node {
			return cmp.Compare(a.Node, b.Node)
		}
		switch {
		case a.Up == b.Up:
			return 0
		case a.Up:
			return -1
		}
		return 1
	})
	return events
}
