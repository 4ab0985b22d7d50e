package sim

import (
	"reflect"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/fault"
	"clnlr/internal/geom"
	"clnlr/internal/journey"
	"clnlr/internal/mobility"
	"clnlr/internal/node"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/routing/counter"
	"clnlr/internal/routing/gossip"
	"clnlr/internal/topo"
	"clnlr/internal/traffic"
)

// Engine is a reusable simulation instance: one fully allocated network
// stack (DES kernel, radio medium, per-node MAC + routing state) that can
// run scenario after scenario, resetting in place instead of rebuilding.
// Warm reuse eliminates the per-replication allocation storm of a sweep —
// each worker in a pool owns one Engine and drains its job queue through
// it.
//
// Determinism contract: a warm rerun is bit-identical to a cold run of
// the same scenario. This holds because every seed derivation is pure
// (rng.Derive mixes the creation seed, never mutable stream state), the
// des.Sim restarts at (time 0, sequence 0), and every stateful component
// has a Reset that restores its construction state while keeping grown
// storage. Every run is RunJourney (Engine.Run is RunJourney without
// instruments, and discovery probes are a workload, Scenario.Probes),
// which starts from one prologue (begin) on exactly this path — a cold
// run is just a warm run on a fresh Engine — so cold and warm cannot
// drift apart. Every run places its nodes afresh (a pure derivation of
// its seed, into storage the engine keeps); the network is rebuilt from
// scratch only when the node count or radio parameters change, and
// everything else resets in place. No instrument lives on the Engine:
// the stall watchdog, collector and journey recorder are RunJourney's
// arguments, installed (or detached) by every run.
//
// An Engine is not safe for concurrent use; give each worker its own.
type Engine struct {
	simk   *des.Sim
	medium *radio.Medium
	nodes  []*node.Node

	built       bool
	radioParams radio.Params

	// positions and tp are the storage every run's placement and its
	// connectivity check draw into (see place), so placing allocates
	// nothing once they have grown.
	positions []geom.Point
	tp        topo.Topology

	// auditArmed remembers whether the per-node pool ledgers are on, so
	// an audit-off run after an audited one disarms them exactly once.
	auditArmed bool

	// referenceRadio forces the medium's exhaustive O(N) receiver scan
	// on every transmission instead of the memoised audible sets: the
	// slow reference path the determinism tests compare the default
	// against (see referenceEngine in export_test.go). Results are
	// bit-identical either way.
	referenceRadio bool

	// warmJoules is each node's energy reading at Warmup (see openWindow).
	warmJoules []float64

	// mgr is the traffic manager, reset in place by every run after the
	// first, which builds it; flows holds the last run's workload.
	mgr   *traffic.Manager
	flows []traffic.Flow

	// walker is the mobility model and churn the crash/recover schedule
	// of the last run that had them, reset in place by the next.
	walker mobility.Waypoint
	churn  []fault.NodeEvent

	// schemes holds the spec and policy of the schemes the engine ran
	// last, at most maxSchemes; next is this run's, looked up among them
	// (see prepare).
	schemes []schemeState
	evict   int // the entry a new scheme replaces once schemes is full
	next    schemeKey
	// netRng is the stream the per-node MAC and agent streams derive
	// from (master.Derive(1000)), rederived in place for every run.
	netRng rng.Source

	// aud and smp are the auditor and the sampler of the last run that
	// had them, reset in place by the next.
	aud auditor
	smp sampler
}

// schemeState is one scheme a warm engine ran: the spec built from key
// and the policy the current network ran it with (nil until one has,
// and again once the network is rebuilt). The policy is empty between
// runs: the agents' resets hand back what it held.
type schemeState struct {
	key    schemeKey
	spec   routing.Spec
	policy routing.RREQPolicy
}

// maxSchemes bounds Engine.schemes: every scheme of a sweep that cycles
// through AllSchemes and gossip-adaptive, with room to spare.
const maxSchemes = 8

// schemeKey is everything Scenario.agentSpec reads.
type schemeKey struct {
	scheme  Scheme
	routing routing.Config
	gossip  gossip.Params
	counter counter.Params
	clnlr   core.Params
}

func schemeKeyOf(sc Scenario) schemeKey {
	return schemeKey{sc.Scheme, sc.Routing, sc.Gossip, sc.Counter, sc.CLNLR}
}

// NewEngine returns an empty engine; the first Run builds the network.
func NewEngine() *Engine { return &Engine{} }

// TestHookRun, when non-nil, is invoked at the start of every engine run
// with the scenario about to execute. It exists solely so the
// crash-containment tests (here and in the experiments harness) can
// inject panics into replication jobs; production code never sets it.
var TestHookRun func(sc Scenario)

// TestHookPrepared, when non-nil, is invoked after the network is built
// (or warm-reset) and the pools are armed, right before the run starts.
// It exists solely so the auditor mutation tests and watchdog tests can
// seed invariant violations or stalls into an otherwise-normal run;
// production code never sets it.
var TestHookPrepared func(simk *des.Sim, nodes []*node.Node, sc Scenario)

// prepare places the network and builds or resets the stack for one run.
// A scheme the engine ran before keeps its spec and its policy, which the
// last reset away from it emptied; see scheme.
func (e *Engine) prepare(sc Scenario, master *rng.Source) (*topo.Topology, error) {
	positions, err := place(sc, master, &e.tp, e.positions)
	if err != nil {
		return nil, err
	}
	e.positions = positions
	st := e.scheme(sc)
	master.DeriveInto(&e.netRng, 1000)
	if !e.built || len(e.nodes) != len(positions) || e.radioParams != sc.Radio {
		// A kept policy may still hold assessments of the network being
		// dropped (only the policy a reset moves away from is emptied):
		// every scheme builds a fresh one on the new network.
		for i := range e.schemes {
			e.schemes[i].policy = nil
		}
		e.simk = des.NewSim()
		e.medium = radio.NewMedium(e.simk, sc.propagation())
		e.medium.SetReference(e.referenceRadio)
		e.nodes = node.BuildNetwork(e.simk, e.medium, positions, sc.Radio, sc.Mac, &e.netRng, st.spec)
		st.policy = e.nodes[0].Agent.Policy()
		e.radioParams = sc.Radio
		e.built = true
		e.medium.SetImpairment(sc.Faults.Link, sc.Seed)
		return &e.tp, nil
	}
	e.simk.Reset()
	e.medium.Reset(sc.propagation(), positions)
	e.medium.SetReference(e.referenceRadio)
	e.medium.SetImpairment(sc.Faults.Link, sc.Seed)
	if st.policy == nil {
		st.policy = st.spec.Policy()
	}
	node.ResetNetwork(e.nodes, positions, sc.Mac, &e.netRng, st.spec.Cfg, st.policy)
	return &e.tp, nil
}

// scheme returns the engine's state for sc's scheme: the entry of an
// earlier run with the same schemeKey, or a new one with the spec built,
// which takes the place of the oldest entry once maxSchemes are kept.
func (e *Engine) scheme(sc Scenario) *schemeState {
	e.next = schemeKeyOf(sc)
	for i := range e.schemes {
		// DeepEqual of heap values allocates nothing (a local key would
		// escape through it). It tells a nil expanding-ring ladder from
		// an empty one, which costs only a new entry.
		if reflect.DeepEqual(&e.next, &e.schemes[i].key) {
			return &e.schemes[i]
		}
	}
	st := schemeState{key: e.next, spec: sc.agentSpec()}
	if len(e.schemes) < maxSchemes {
		e.schemes = append(e.schemes, st)
		return &e.schemes[len(e.schemes)-1]
	}
	i := e.evict
	e.evict = (e.evict + 1) % maxSchemes
	e.schemes[i] = st
	return &e.schemes[i]
}

// runSetup is what the run prologue hands back to RunJourney.
type runSetup struct {
	// master is the run's root stream, by value: a returned *rng.Source
	// would cost a heap allocation per run.
	master rng.Source
	tp     *topo.Topology
	// crashEvents and recoverEvents count the churn schedule's events
	// inside the measurement window (see attachFaults).
	crashEvents, recoverEvents uint64
	aud                        *auditor // nil unless sc.Audit
}

// auditErr is the auditor's verdict on the finished run (nil when the
// audit is off or found nothing).
func (s runSetup) auditErr() error {
	if s.aud == nil {
		return nil
	}
	return s.aud.Err()
}

// begin is RunJourney's prologue, after validation: the test hooks, the
// master stream, the network (built or warm-reset), the run's watchdog
// (nil detaches the previous run's), the pool ledgers, the optional
// journey recorder, node start, mobility, churn over [0, horizon) and the
// auditor — in that order, which fixes the event sequence of every run.
func (e *Engine) begin(sc Scenario, horizon des.Time, watch *des.Watch, rec *journey.Recorder) (runSetup, error) {
	if TestHookRun != nil {
		TestHookRun(sc)
	}
	var s runSetup
	s.master.Reseed(sc.Seed)
	master := &s.master
	tp, err := e.prepare(sc, master)
	if err != nil {
		return runSetup{}, err
	}
	s.tp = tp
	e.simk.SetWatch(watch)
	// Arm (or disarm) the per-node pool borrow ledgers. The disarm leg
	// only runs when a previous audited run left ledgers armed on this
	// warm engine, so the common audit-off path stays zero-cost.
	if sc.Audit || e.auditArmed {
		for _, n := range e.nodes {
			n.Agent.Env.Pool.SetAudit(sc.Audit)
		}
		e.auditArmed = sc.Audit
	}
	if TestHookPrepared != nil {
		TestHookPrepared(e.simk, e.nodes, sc)
	}
	if rec != nil {
		// prepare (ResetNetwork/Mac.Reset) cleared any previous run's
		// recorder from the per-node state, so install-per-run keeps warm
		// engines equivalent to cold ones.
		var sampler rng.Source
		master.DeriveInto(&sampler, 8000)
		rec.Begin(sc.Warmup, &sampler)
		for _, n := range e.nodes {
			n.Agent.Env.Journey = rec
			n.Mac.SetJourney(rec)
		}
	}
	node.StartAll(e.nodes)
	e.attachMobility(sc, master)
	s.crashEvents, s.recoverEvents = e.attachFaults(sc, master, horizon)
	if sc.Audit {
		s.aud = e.startAudit(horizon)
	}
	return s, nil
}

// Run executes one simulation of the scenario on this engine, reusing the
// warm network when compatible, and returns its metrics. The run body
// lives in RunJourney (observe.go), which also takes the instruments.
func (e *Engine) Run(sc Scenario) (Result, error) {
	return e.RunJourney(sc, nil, nil, nil)
}
