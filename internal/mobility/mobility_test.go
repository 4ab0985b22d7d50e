package mobility

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/rng"
)

// MoverFunc adapts a function to a Mover.
type MoverFunc func(geom.Point)

// SetPos implements Mover.
func (f MoverFunc) SetPos(p geom.Point) { f(p) }

// newWaypoint returns a model reset for region: what a warm engine's
// zero Waypoint becomes on its first Reset.
func newWaypoint(sim *des.Sim, region geom.Rect, cfg Config) *Waypoint {
	w := new(Waypoint)
	w.Reset(sim, region, cfg)
	return w
}

func model(t *testing.T, maxSpeed float64) (*des.Sim, *Waypoint) {
	t.Helper()
	sim := des.NewSim()
	return sim, newWaypoint(sim, geom.Square(1000), DefaultConfig(maxSpeed))
}

func TestNodesStayInRegion(t *testing.T) {
	sim, w := model(t, 20)
	region := geom.Square(1000)
	src := rng.New(1)
	var positions []geom.Point
	for i := 0; i < 10; i++ {
		i := i
		positions = append(positions, geom.Point{X: 500, Y: 500})
		w.Track(positions[i], MoverFunc(func(p geom.Point) {
			if region.Clamp(p) != p {
				t.Errorf("node %d escaped region: %v", i, p)
			}
			positions[i] = p
		}), src.Derive(uint64(i)))
	}
	w.Start()
	sim.RunUntil(120 * des.Second)
}

func TestSpeedBounded(t *testing.T) {
	sim, w := model(t, 10)
	cfg := DefaultConfig(10)
	last := geom.Point{X: 0, Y: 0}
	lastT := des.Time(0)
	w.Track(last, MoverFunc(func(p geom.Point) {
		now := sim.Now()
		dt := (now - lastT).Seconds()
		if dt > 0 {
			v := last.Dist(p) / dt
			if v > cfg.MaxSpeedMps*1.01 {
				t.Errorf("observed speed %.2f m/s exceeds max %.2f", v, cfg.MaxSpeedMps)
			}
		}
		last, lastT = p, now
	}), rng.New(7))
	w.Start()
	sim.RunUntil(60 * des.Second)
}

func TestNodeActuallyMoves(t *testing.T) {
	sim, w := model(t, 5)
	start := geom.Point{X: 100, Y: 100}
	cur := start
	w.Track(start, MoverFunc(func(p geom.Point) { cur = p }), rng.New(3))
	w.Start()
	sim.RunUntil(60 * des.Second)
	if cur.Dist(start) < 10 {
		t.Fatalf("node barely moved in 60 s: %v -> %v", start, cur)
	}
}

func TestPauseAtWaypoint(t *testing.T) {
	// With a huge pause, after reaching the first waypoint the node
	// should hold still for the pause duration.
	sim := des.NewSim()
	cfg := Config{MinSpeedMps: 50, MaxSpeedMps: 50, Pause: 30 * des.Second, Interval: 100 * des.Millisecond}
	w := newWaypoint(sim, geom.Square(100), cfg) // tiny region: waypoints reached fast
	var lastUpdate des.Time
	w.Track(geom.Point{X: 50, Y: 50}, MoverFunc(func(p geom.Point) { lastUpdate = sim.Now() }), rng.New(5))
	w.Start()
	sim.RunUntil(10 * des.Second)
	// At 50 m/s in a 100 m region the first waypoint is reached within a
	// few seconds; position updates must then cease for the 30 s pause
	// (paused nodes hold still and emit nothing).
	if lastUpdate == 0 {
		t.Fatal("node never moved")
	}
	if lastUpdate > 4*des.Second {
		t.Fatalf("node still updating at %v despite 30 s pause", lastUpdate)
	}
}

func TestDeterministicTrajectories(t *testing.T) {
	run := func() geom.Point {
		sim, w := model(t, 15)
		cur := geom.Point{X: 10, Y: 10}
		w.Track(cur, MoverFunc(func(p geom.Point) { cur = p }), rng.New(42))
		w.Start()
		sim.RunUntil(30 * des.Second)
		return cur
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed trajectories diverged: %v vs %v", a, b)
	}
}

func TestIndependentStreams(t *testing.T) {
	sim, w := model(t, 15)
	src := rng.New(9)
	p1 := geom.Point{X: 500, Y: 500}
	p2 := geom.Point{X: 500, Y: 500}
	w.Track(p1, MoverFunc(func(p geom.Point) { p1 = p }), src.Derive(1))
	w.Track(p2, MoverFunc(func(p geom.Point) { p2 = p }), src.Derive(2))
	w.Start()
	sim.RunUntil(30 * des.Second)
	if p1 == p2 {
		t.Fatal("two nodes with distinct streams followed identical trajectories")
	}
}

// TestKernelResetHaltsUpdates: a run's position updates end with the
// kernel's Reset, which a warm engine calls before the next run, however
// many steps the model had left.
func TestKernelResetHaltsUpdates(t *testing.T) {
	sim, w := model(t, 10)
	count := 0
	w.Track(geom.Point{}, MoverFunc(func(geom.Point) { count++ }), rng.New(1))
	w.Start()
	sim.RunUntil(5 * des.Second)
	sim.Reset()
	at := count
	if at == 0 {
		t.Fatal("no update before the reset")
	}
	sim.RunUntil(20 * des.Second)
	if count != at {
		t.Fatalf("updates continued after the kernel reset: %d -> %d", at, count)
	}
}

func TestConfigValidation(t *testing.T) {
	sim := des.NewSim()
	bad := []Config{
		{MinSpeedMps: 0, MaxSpeedMps: 5, Interval: des.Second},
		{MinSpeedMps: 5, MaxSpeedMps: 1, Interval: des.Second},
		{MinSpeedMps: 1, MaxSpeedMps: 5, Interval: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			newWaypoint(sim, geom.Square(10), cfg)
		}()
	}
}

func TestMeanDisplacementScalesWithSpeed(t *testing.T) {
	displacement := func(maxSpeed float64) float64 {
		sim := des.NewSim()
		cfg := DefaultConfig(maxSpeed)
		cfg.Pause = 0
		w := newWaypoint(sim, geom.Square(10000), cfg) // huge region: rarely arrive
		start := geom.Point{X: 5000, Y: 5000}
		cur := start
		w.Track(start, MoverFunc(func(p geom.Point) { cur = p }), rng.New(11))
		w.Start()
		sim.RunUntil(60 * des.Second)
		return cur.Dist(start)
	}
	slow := displacement(2)
	fast := displacement(20)
	if fast < slow {
		t.Fatalf("faster model displaced less: %v vs %v", fast, slow)
	}
	if math.Abs(fast) < 100 {
		t.Fatalf("20 m/s node displaced only %v m in 60 s", fast)
	}
}

// recorder is a Mover that keeps the last position it was moved to.
type recorder struct{ at geom.Point }

func (r *recorder) SetPos(p geom.Point) { r.at = p }

// TestResetReusesWalkers: a model reset for another run on the reset
// kernel moves its nodes exactly as a new model would, and a warm run —
// reset, track, start, steps — allocates nothing.
func TestResetReusesWalkers(t *testing.T) {
	sim := des.NewSim()
	cfg := DefaultConfig(10)
	movers := make([]recorder, 5)
	run := func(w *Waypoint, seed uint64) {
		src := rng.New(seed)
		var s rng.Source
		for i := range movers {
			src.DeriveInto(&s, uint64(i))
			w.Track(geom.Point{X: 100, Y: 100}, &movers[i], &s)
		}
		w.Start()
		sim.RunUntil(30 * des.Second)
	}
	w := newWaypoint(sim, geom.Square(500), cfg)
	run(w, 1)
	sim.Reset()
	w.Reset(sim, geom.Square(500), cfg)
	run(w, 2)
	warm := append([]recorder(nil), movers...)
	fresh := des.NewSim()
	sim, w = fresh, newWaypoint(fresh, geom.Square(500), cfg)
	run(w, 2)
	for i := range movers {
		if movers[i] != warm[i] {
			t.Errorf("node %d: reset model ends at %v, a new one at %v", i, warm[i].at, movers[i].at)
		}
	}
	if n := testing.AllocsPerRun(5, func() {
		sim.Reset()
		w.Reset(sim, geom.Square(500), cfg)
		run(w, 3)
	}); n != 0 {
		t.Errorf("a warm run of the model allocates %v times, want 0", n)
	}
}
