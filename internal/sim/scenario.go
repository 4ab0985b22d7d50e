// Package sim is the experiment harness: it turns a declarative Scenario
// into a built network, runs it with warm-up discipline, and extracts the
// Result metrics the paper's figures plot. Independent replications and
// sweep points fan out over the experiments planner's bounded worker pool
// — the "share nothing, merge results" pattern — while each individual run
// stays strictly sequential and deterministic.
package sim

import (
	"fmt"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/fault"
	"clnlr/internal/mac"
	"clnlr/internal/radio"
	"clnlr/internal/routing"
	"clnlr/internal/routing/aodv"
	"clnlr/internal/routing/counter"
	"clnlr/internal/routing/gossip"
)

// Scheme names a routing scheme under evaluation.
type Scheme string

// The evaluated schemes. SchemeGossipAdaptive (density-adaptive gossip,
// load-blind) is CLNLR at core.DensityOnly; it is available for ad-hoc
// comparisons but is not part of the paper's headline comparison set
// (AllSchemes).
const (
	SchemeFlood          Scheme = "flood"
	SchemeGossip         Scheme = "gossip"
	SchemeCounter        Scheme = "counter"
	SchemeCLNLR          Scheme = "clnlr"
	SchemeCLNLR2         Scheme = "clnlr-2hop"
	SchemeGossipAdaptive Scheme = "gossip-adaptive"
)

// AllSchemes lists the comparison set in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeFlood, SchemeGossip, SchemeCounter, SchemeCLNLR, SchemeCLNLR2}
}

// Topology selects how nodes are placed.
type Topology string

// Supported placements.
const (
	TopoGrid          Topology = "grid"           // exact lattice
	TopoPerturbedGrid Topology = "perturbed-grid" // lattice with random offsets
	TopoRandom        Topology = "random"         // uniform, connectivity-checked
)

// Prop names a propagation model choice.
type Prop string

// Supported propagation models.
const (
	PropTwoRay      Prop = "two-ray"
	PropLogDistance Prop = "log-distance"
	PropNakagami    Prop = "nakagami"
)

// Scenario declares one simulation configuration. Zero values are filled
// by DefaultScenario; construct variants by mutating a copy of it.
type Scenario struct {
	Name string
	Seed uint64

	// Placement.
	Topology    Topology
	AreaM       float64
	Rows, Cols  int     // grid dimensions (grid topologies)
	Nodes       int     // node count (random topology)
	PerturbFrac float64 // perturbed-grid displacement fraction

	// Stack parameters.
	Radio   radio.Params
	Mac     mac.Config
	Routing routing.Config

	// Scheme under test plus its knobs.
	Scheme  Scheme
	Gossip  gossip.Params
	Counter counter.Params
	CLNLR   core.Params

	// Workload.
	Flows        int
	PacketRate   float64 // packets per second per flow
	PayloadBytes int
	Poisson      bool
	MinHopDist   int  // minimum endpoint separation in hops
	Gateway      bool // all flows sink at the centre node (hotspot workload)
	// SessionTime, when positive, turns each flow slot into a sequence of
	// fixed-length sessions with freshly drawn endpoints, so route
	// discovery keeps happening during the measurement window (a static
	// mesh with immortal flows discovers everything during warm-up,
	// which would make overhead figures vacuous).
	SessionTime des.Time
	// Probes adds the route-discovery workload of F-R1/F-R2: from Warmup
	// to the end of the window, one single-packet probe every ProbeGap
	// between freshly drawn endpoints, each forcing one discovery. The
	// probes' outcome is Result.Probes*; Flows may then be zero.
	Probes bool `json:",omitempty"`

	// Channel model: PropModel selects the propagation ("two-ray" or ""
	// = default, "log-distance" with PathLossExp/ShadowSigmaDB, or
	// "nakagami" = two-ray plus Nakagami-m fast fading with shape
	// NakagamiM). Fading/shadowing draws derive from the run seed.
	PropModel     Prop
	PathLossExp   float64
	ShadowSigmaDB float64
	NakagamiM     int

	// Faults configures deterministic fault injection: node churn
	// (crash/recover schedules drawn from the run seed or given
	// explicitly) and Gilbert–Elliott per-link burst loss. The zero value
	// disables both, consuming no randomness, so fault-free runs are
	// bit-identical to scenarios predating this field (experiment F-R11).
	Faults fault.Config

	// Mobility: MobilitySpeed > 0 moves nodes by random waypoint with
	// that maximum speed (m/s); MobilityPause is the per-waypoint dwell
	// (0 uses the model default). Mesh backbones are static in the
	// paper's setting; this exercises link breakage, RERR propagation
	// and re-discovery (experiment F-R10).
	MobilitySpeed float64
	MobilityPause des.Time

	// Timing: traffic starts at TrafficStart; metrics cover packets
	// created in [Warmup, Warmup+Measure].
	TrafficStart des.Time
	Warmup       des.Time
	Measure      des.Time

	// Audit enables the runtime invariant auditor: at every audit point a
	// read-only checker cross-checks the packet-conservation ledger, DES
	// event-list sanity, radio dense-state coherence and the AODV
	// protocol invariants (see internal/sim/audit.go). Violations surface
	// as a structured error from the run. Results are bit-identical with
	// auditing on or off; off (the default) costs nothing.
	Audit bool
}

// ProbeGap separates consecutive probes of Scenario.Probes. Validate
// rejects a probe scenario whose worst-case discovery time (RREQ attempts
// × DiscoveryTimeout) does not fit in it, so discoveries never overlap.
const ProbeGap = 4 * des.Second

// DefaultScenario returns Table R-1's operating point: a 7×7 grid over
// 1000×1000 m (≈143 m spacing), 802.11b at 2 Mb/s, 10 CBR flows of
// 4 packets/s × 512 B, 10 s warm-up and 80 s measurement.
func DefaultScenario() Scenario {
	return Scenario{
		Name:         "default",
		Seed:         1,
		Topology:     TopoGrid,
		PropModel:    PropTwoRay,
		PathLossExp:  3.0,
		NakagamiM:    1,
		AreaM:        1000,
		Rows:         7,
		Cols:         7,
		PerturbFrac:  0.2,
		Radio:        radio.DefaultParams(),
		Mac:          mac.DefaultConfig(),
		Routing:      routing.DefaultConfig(),
		Scheme:       SchemeCLNLR,
		Gossip:       gossip.DefaultParams(),
		Counter:      counter.DefaultParams(),
		CLNLR:        core.DefaultParams(),
		Flows:        10,
		PacketRate:   4,
		PayloadBytes: 512,
		Poisson:      false,
		MinHopDist:   2,
		TrafficStart: des.Second,
		Warmup:       10 * des.Second,
		Measure:      80 * des.Second,
	}
}

// WithScheme returns a copy configured for the given scheme.
func (s Scenario) WithScheme(sc Scheme) Scenario {
	s.Scheme = sc
	return s
}

// NodeCount returns the number of nodes the scenario will place.
func (s Scenario) NodeCount() int {
	switch s.Topology {
	case TopoRandom:
		return s.Nodes
	default:
		return s.Rows * s.Cols
	}
}

// Validate checks the scenario for configuration errors.
func (s Scenario) Validate() error {
	switch s.Topology {
	case TopoGrid, TopoPerturbedGrid:
		if s.Rows <= 0 || s.Cols <= 0 {
			return fmt.Errorf("sim: %s topology needs positive Rows/Cols", s.Topology)
		}
	case TopoRandom:
		if s.Nodes <= 1 {
			return fmt.Errorf("sim: random topology needs at least 2 nodes")
		}
	default:
		return fmt.Errorf("sim: unknown topology %q", s.Topology)
	}
	switch s.Scheme {
	case SchemeFlood, SchemeGossip, SchemeCounter, SchemeCLNLR, SchemeCLNLR2,
		SchemeGossipAdaptive:
	default:
		return fmt.Errorf("sim: unknown scheme %q", s.Scheme)
	}
	// Only the selected scheme's knobs are checked: a flood scenario
	// carrying junk CLNLR fields never reads them.
	if p, ok := s.clnlrParams(); ok {
		if err := core.Validate(p); err != nil {
			return fmt.Errorf("sim: scheme %s: %w", s.Scheme, err)
		}
	}
	if s.Scheme == SchemeCounter {
		if err := counter.Validate(s.Counter); err != nil {
			return fmt.Errorf("sim: scheme counter: %w", err)
		}
	}
	switch s.PropModel {
	case "", PropTwoRay, PropLogDistance, PropNakagami:
	default:
		return fmt.Errorf("sim: unknown propagation model %q", s.PropModel)
	}
	if s.AreaM <= 0 {
		return fmt.Errorf("sim: non-positive area")
	}
	if s.Flows <= 0 && !s.Gateway && !s.Probes {
		return fmt.Errorf("sim: no flows configured")
	}
	if s.PacketRate <= 0 {
		return fmt.Errorf("sim: non-positive packet rate")
	}
	// A UDP datagram over IPv4 carries at most 65 507 bytes; far larger
	// payloads overflow the MAC's airtime arithmetic.
	if s.PayloadBytes <= 0 || s.PayloadBytes > 65507 {
		return fmt.Errorf("sim: payload %d bytes outside [1, 65507]", s.PayloadBytes)
	}
	if s.Measure <= 0 {
		return fmt.Errorf("sim: non-positive measurement window")
	}
	if s.Probes {
		if s.Measure%ProbeGap != 0 {
			return fmt.Errorf("sim: probe window %v is not a multiple of the %v probe gap", s.Measure, ProbeGap)
		}
		// (RREQRetries+1) × DiscoveryTimeout < ProbeGap, without overflow.
		if r, t := s.Routing.RREQRetries, s.Routing.DiscoveryTimeout; r < 0 || t <= 0 || des.Time(r) >= (ProbeGap-1)/t {
			return fmt.Errorf("sim: probes need (RREQRetries+1) × DiscoveryTimeout under the %v probe gap", ProbeGap)
		}
	}
	if s.Warmup < 0 {
		return fmt.Errorf("sim: negative warm-up")
	}
	if s.TrafficStart < 0 {
		return fmt.Errorf("sim: negative traffic start")
	}
	if s.SessionTime < 0 {
		return fmt.Errorf("sim: negative session time")
	}
	if s.MobilitySpeed < 0 {
		return fmt.Errorf("sim: negative mobility speed")
	}
	if s.MobilityPause < 0 {
		return fmt.Errorf("sim: negative mobility pause")
	}
	if s.PerturbFrac < 0 || s.PerturbFrac > 1 {
		return fmt.Errorf("sim: perturbation fraction %v outside [0,1]", s.PerturbFrac)
	}
	if s.NakagamiM < 0 {
		return fmt.Errorf("sim: negative Nakagami shape")
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if err := s.Mac.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if s.NodeCount() < 2 {
		return fmt.Errorf("sim: need at least 2 nodes")
	}
	return nil
}

// propagation instantiates the scenario's channel model. The seed feeds
// shadowing/fading hashes so replications see different channels.
func (s Scenario) propagation() radio.Propagation {
	switch s.PropModel {
	case PropLogDistance:
		exp := s.PathLossExp
		if exp <= 0 {
			exp = 3.0
		}
		return radio.NewLogDistance(914e6, exp, 1.0, s.ShadowSigmaDB, s.Seed)
	case PropNakagami:
		m := s.NakagamiM
		if m < 1 {
			m = 1
		}
		return radio.NewNakagami(twoRay, m, 10*des.Millisecond, s.Seed)
	default:
		return twoRay
	}
}

// twoRay is the default channel, boxed once: it draws nothing from the
// seed, so every run shares it and a run's placement check and medium
// reset take it without allocating.
var twoRay radio.Propagation = radio.NewTwoRay(914e6, 1.5, 1.5)

// clnlrParams returns the CLNLR parameters the scenario's scheme runs
// with, or false for a scheme that is not a point of CLNLR's rule.
// gossip-adaptive is the density-only point, beaconing at the shared
// HELLO interval.
func (s Scenario) clnlrParams() (core.Params, bool) {
	switch s.Scheme {
	case SchemeCLNLR, SchemeCLNLR2:
		p := s.CLNLR
		p.TwoHop = s.Scheme == SchemeCLNLR2
		return p, true
	case SchemeGossipAdaptive:
		return core.DensityOnly(s.Routing.HelloInterval), true
	}
	return core.Params{}, false
}

// agentSpec maps the scenario's scheme to its routing.Spec: the scheme's
// effective configuration plus a constructor for its per-run policy. The
// engine builds a network from this spec and resets a warm one against
// it.
func (s Scenario) agentSpec() routing.Spec {
	if p, ok := s.clnlrParams(); ok {
		return core.Spec(s.Routing, p)
	}
	switch s.Scheme {
	case SchemeGossip:
		return gossip.Spec(s.Routing, s.Gossip)
	case SchemeCounter:
		return counter.Spec(s.Routing, s.Counter)
	default:
		return aodv.Spec(s.Routing)
	}
}
