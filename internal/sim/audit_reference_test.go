package sim

import (
	"fmt"
	"reflect"
	"testing"

	"clnlr/internal/audit"
	"clnlr/internal/des"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/routing"
)

// referenceAuditor is the auditor as a full walk: at every audit point it
// checks every routing table and every audible set. The differential
// tests run it beside the engine's auditor, which checks only what
// changed, at every point of a run and require the same violations.
type referenceAuditor struct {
	e        *Engine
	rec      audit.Recorder
	lastSeq  []uint32
	lastDF   []uint64
	lastPast uint64
	routes   []audit.Violation // the last point's route violations
}

// newReferenceAuditor snapshots the same baselines startAudit does; call
// it from TestHookPrepared, after which no event runs before startAudit.
func newReferenceAuditor(e *Engine, nodes []*node.Node) *referenceAuditor {
	r := &referenceAuditor{e: e, lastSeq: make([]uint32, len(nodes)), lastDF: make([]uint64, len(nodes))}
	for i, n := range nodes {
		r.lastSeq[i] = n.Agent.SeqNo()
	}
	return r
}

func (a *referenceAuditor) check() {
	e := a.e
	now := e.simk.Now()

	if ps := e.simk.PastSchedules(); ps != a.lastPast {
		a.rec.Recordf("des/past-schedule", -1, now,
			"%d event(s) scheduled before the clock (+%d since last audit)", ps, ps-a.lastPast)
		a.lastPast = ps
	}
	if err := e.simk.AuditQueue(); err != nil {
		a.rec.Recordf("des/queue", -1, now, "%v", err)
	}
	if _, err := e.medium.AuditCoherence(true); err != nil {
		a.rec.Recordf("radio/coherence", -1, now, "%v", err)
	}

	for i, n := range e.nodes {
		pool := n.Agent.Env.Pool
		if df := pool.DoubleFrees(); df != a.lastDF[i] {
			a.rec.Recordf("pkt/double-free", i, now,
				"%d release(s) of packets not live (+%d since last audit)", df, df-a.lastDF[i])
			a.lastDF[i] = df
		}
		cur := n.Agent.SeqNo()
		if pkt.SeqNewer(a.lastSeq[i], cur) {
			a.rec.Recordf("routing/seq-monotone", i, now,
				"own sequence number went backwards: %d -> %d", a.lastSeq[i], cur)
		}
		a.lastSeq[i] = cur
		held := n.Mac.HeldPackets() + n.Agent.HeldPackets()
		if live := pool.LiveBorrowed(); live != held {
			a.rec.Recordf("pkt/conservation", i, now,
				"%d packet(s) borrowed from the pool but %d held by MAC+routing", live, held)
		}
	}
	a.routes = a.routes[:0]
	a.checkRoutes(now)
	for _, v := range a.routes {
		a.rec.Record(v)
	}
}

// checkRoutes walks every routing table once, checking structural
// next-hop validity and the two-node loop-freedom projection.
func (a *referenceAuditor) checkRoutes(now des.Time) {
	e := a.e
	nn := len(e.nodes)
	recordf := func(invariant string, node int, format string, args ...any) {
		a.routes = append(a.routes, audit.Violation{Invariant: invariant, Node: node, Time: now, Detail: fmt.Sprintf(format, args...)})
	}
	for i, n := range e.nodes {
		n.Agent.Table().Each(func(r routing.Route) {
			if !r.Valid || r.Expires <= now {
				return
			}
			nh := int(r.NextHop)
			switch {
			case nh < 0 || nh >= nn:
				recordf("routing/next-hop", i,
					"route to %d has out-of-range next hop %d", r.Dst, nh)
				return
			case nh == i:
				recordf("routing/next-hop", i,
					"route to %d has the node itself as next hop", r.Dst)
				return
			case int(r.Dst) == i:
				recordf("routing/next-hop", i,
					"node has a route to itself via %d", nh)
				return
			}
			// Two-node loop: i routes dst via nh while nh routes the same
			// dst back via i (both live). Only check each pair once.
			if int(r.Dst) == nh || nh < i {
				return
			}
			back, ok := e.nodes[nh].Agent.Table().Get(r.Dst)
			if ok && back.Valid && back.Expires > now && int(back.NextHop) == i {
				recordf("routing/loop", i,
					"two-node loop to %d: %d->%d and %d->%d", r.Dst, i, nh, nh, i)
			}
		})
	}
}

// auditPoint is what one audit point of the engine's auditor did.
type auditPoint struct {
	t               des.Time
	tables, sets    int
	routeViolations int
	incremental     bool // checked only what changed (neither first nor last)
}

// runAudited runs sc audited on e with mutate (if any) installed at the
// prepared point. At every audit point it runs the reference auditor and
// fails the test unless both found the same route violations at that
// point and hold the same record of the run so far. It returns the run's
// Result and error and what each point did.
func runAudited(t *testing.T, e *Engine, sc Scenario, mutate func(simk *des.Sim, nodes []*node.Node)) (Result, []auditPoint, error) {
	t.Helper()
	sc.Audit = true
	var ref *referenceAuditor
	var points []auditPoint
	TestHookPrepared = func(simk *des.Sim, nodes []*node.Node, _ Scenario) {
		ref = newReferenceAuditor(e, nodes)
		if mutate != nil {
			mutate(simk, nodes)
		}
	}
	testHookAuditPoint = func(a *auditor) {
		now := a.e.simk.Now()
		ref.check()
		got := make([]audit.Violation, len(a.found))
		for k, f := range a.found {
			got[k] = f.violation(now)
		}
		if !reflect.DeepEqual(got, ref.routes) && (len(got) > 0 || len(ref.routes) > 0) {
			t.Errorf("t=%v: route violations\n got %v\nwant %v", now, got, ref.routes)
		}
		if !reflect.DeepEqual(a.rec.Err(), ref.rec.Err()) {
			t.Fatalf("t=%v: the auditor's record differs from the full walk's:\n got %v\nwant %v", now, a.rec.Err(), ref.rec.Err())
		}
		points = append(points, auditPoint{
			t: now, tables: a.tablesChecked, sets: a.setsChecked, routeViolations: len(a.found),
			incremental: a.points > 1 && now+auditInterval <= a.end,
		})
	}
	defer func() { TestHookPrepared, testHookAuditPoint = nil, nil }()
	r, err := e.Run(sc)
	if len(points) == 0 {
		t.Fatal("the run had no audit point")
	}
	return r, points, err
}
