// Package mobility moves nodes during a simulation. The primary model is
// random waypoint (RWP), the standard model of the MANET/WMN literature:
// each node repeatedly picks a uniform destination in the region and a
// uniform speed, travels there in a straight line, pauses, and repeats.
//
// Positions advance in discrete steps of the configured interval; the
// radio layer reads positions per transmission, so the approximation
// error is bounded by speed × interval (centimetres at vehicular speeds
// with the default 100 ms step).
package mobility

import (
	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/rng"
)

// Mover is what the model moves: one node's position (a *radio.Radio in
// the simulation harness, whose SetPos the model calls with each step).
type Mover interface {
	SetPos(geom.Point)
}

// Config parameterises a random-waypoint model.
type Config struct {
	// MinSpeedMps and MaxSpeedMps bound the per-leg uniform speed draw.
	// MinSpeedMps > 0 avoids RWP's well-known speed-decay pathology.
	MinSpeedMps, MaxSpeedMps float64
	// Pause is the dwell time at each waypoint.
	Pause des.Time
	// Interval is the position-update step.
	Interval des.Time
}

// DefaultConfig returns a moderate pedestrian-to-vehicular RWP setup.
func DefaultConfig(maxSpeed float64) Config {
	minSpeed := maxSpeed / 10
	if minSpeed < 0.1 {
		minSpeed = 0.1
	}
	return Config{
		MinSpeedMps: minSpeed,
		MaxSpeedMps: maxSpeed,
		Pause:       2 * des.Second,
		Interval:    100 * des.Millisecond,
	}
}

// legState is one node's current movement leg.
type legState struct {
	pos        geom.Point
	target     geom.Point
	speed      float64 // m/s
	pausedTill des.Time
	mover      Mover
	src        rng.Source
}

// Waypoint is a random-waypoint mobility model driving any number of
// nodes inside one region. Its position steps are one self-rescheduling
// typed event (the Waypoint is its own des.Handler), and Reset readies it
// for another run keeping its per-node storage, so a warm engine that
// holds one moves its nodes run after run without allocating. The zero
// Waypoint is ready for Reset.
type Waypoint struct {
	sim    *des.Sim
	region geom.Rect
	cfg    Config
	nodes  []legState
}

// Reset readies the model for a fresh run on sim, which must be new or
// just reset (a step still queued from an earlier run would fire again):
// no node is tracked and none moves until Start.
func (w *Waypoint) Reset(sim *des.Sim, region geom.Rect, cfg Config) {
	if cfg.MaxSpeedMps <= 0 || cfg.MinSpeedMps <= 0 || cfg.MinSpeedMps > cfg.MaxSpeedMps {
		panic("mobility: invalid speed range")
	}
	if cfg.Interval <= 0 {
		panic("mobility: non-positive update interval")
	}
	clear(w.nodes)
	*w = Waypoint{sim: sim, region: region, cfg: cfg, nodes: w.nodes[:0]}
}

// Track registers one node starting at initial; the model will call
// m.SetPos with each new position. The node's legs are drawn from its own
// copy of src's stream, so the caller may reuse src.
func (w *Waypoint) Track(initial geom.Point, m Mover, src *rng.Source) {
	w.nodes = append(w.nodes, legState{pos: initial, mover: m, src: *src})
	w.newLeg(&w.nodes[len(w.nodes)-1])
}

// newLeg draws the next waypoint and speed for a node.
func (w *Waypoint) newLeg(ls *legState) {
	ls.target = geom.Point{
		X: ls.src.Uniform(w.region.Min.X, w.region.Max.X),
		Y: ls.src.Uniform(w.region.Min.Y, w.region.Max.Y),
	}
	ls.speed = ls.src.Uniform(w.cfg.MinSpeedMps, w.cfg.MaxSpeedMps)
}

// Start begins periodic position updates, the first one interval from
// now; call it once per Reset. The updates run until the kernel is reset.
func (w *Waypoint) Start() { w.sim.ScheduleCall(w.cfg.Interval, w, 0, 0) }

// HandleEvent implements des.Handler: one position step, then the next
// one interval later.
func (w *Waypoint) HandleEvent(int32, uint32) {
	w.step()
	w.sim.ScheduleCall(w.cfg.Interval, w, 0, 0)
}

// step advances every tracked node by one interval.
func (w *Waypoint) step() {
	now := w.sim.Now()
	dt := w.cfg.Interval.Seconds()
	for i := range w.nodes {
		ls := &w.nodes[i]
		if now < ls.pausedTill {
			continue
		}
		remaining := ls.pos.Dist(ls.target)
		stride := ls.speed * dt
		if stride >= remaining {
			// Arrive, pause, and plan the next leg.
			ls.pos = ls.target
			ls.pausedTill = now + w.cfg.Pause
			w.newLeg(ls)
		} else {
			f := stride / remaining
			ls.pos = geom.Point{
				X: ls.pos.X + (ls.target.X-ls.pos.X)*f,
				Y: ls.pos.Y + (ls.target.Y-ls.pos.Y)*f,
			}
		}
		ls.mover.SetPos(ls.pos)
	}
}
