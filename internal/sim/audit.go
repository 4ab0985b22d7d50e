package sim

import (
	"cmp"
	"fmt"
	"slices"

	"clnlr/internal/audit"
	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/routing"
)

// auditInterval is the spacing of audit points. It matches the default
// metrics sampling cadence: coarse enough to stay cheap, fine enough
// that a violation is caught within a tenth of a simulated second.
const auditInterval = 100 * des.Millisecond

// auditor is the runtime invariant checker behind Scenario.Audit: a
// self-rescheduling typed DES event that cross-checks live engine state
// at every audit point. Each tick schedules the next, so the audit train
// adds at most one pending event at a time.
//
// Every check is read-only — the auditor never touches an RNG, never
// mutates protocol state (it deliberately avoids Table.Lookup, whose
// expiry check writes), and only schedules its own successor — so an
// audited run produces a bit-identical Result to an unaudited one.
//
// Checked invariants:
//
//   - des/past-schedule: no event is ever scheduled before the clock;
//   - des/queue: heap order, inline keys and recorded positions (Sim.AuditQueue);
//   - radio/coherence: receiver records vs in-flight frames — arrival
//     counts, energy sums, carrier state and clocks (AuditCoherence);
//   - pkt/double-free: no pool Release of a packet that is not live;
//   - pkt/conservation: per node, packets borrowed from the pool equal
//     packets held by the MAC (queue, frame in service, a crash's orphan
//     still on the air) and the routing layer (leak detection), on every
//     node — crashed ones too, whose Crash hands its discards back;
//   - routing/seq-monotone: a node's own AODV sequence number never
//     decreases (RFC 3561 §6.1; Fehnker et al.'s monotonicity invariant);
//   - routing/next-hop: every valid route's next hop is a real, distinct
//     node and no destination routes to itself;
//   - routing/loop: no two nodes are each other's next hop for the same
//     destination (both valid and unexpired) — the two-node projection
//     of AODV loop freedom.
//
// The routing and audible-set checks are incremental: an audit point
// re-checks only the routing tables whose Table.Writes moved since the
// previous point, plus the nodes that took part in a violation there (so
// a persisting violation is re-reported at every point, as a full walk
// would), and only the audible sets rebuilt since the previous point.
// Lifetime extension of a live route is the one table write that does
// not count, and it cannot create a violation. The first and the last
// point of a run check every table and every set, a backstop for any
// write that bypassed the counters. Everything else is checked in full
// at every point.
//
// The "next hop is a current neighbour" clause of the paper's liveness
// invariant is deliberately not checked: neighbour tables are built from
// HELLO beacons whose loss allowance lags link breakage by design (and
// schemes without HELLO have no neighbour table at all), so a runtime
// check would flag healthy runs. The structural and loop checks above
// are the soundly checkable projection.
type auditor struct {
	e   *Engine
	rec audit.Recorder
	end des.Time

	lastSeq  []uint32 // per-node own sequence number at the last audit point
	lastDF   []uint64 // per-node double-free count already reported
	lastPast uint64   // past-schedule count already reported

	points     int            // audit points run so far
	lastWrites []uint64       // per-node Table.Writes at the last audit point
	scan       []bool         // per node: its table is checked at this point
	hot        []bool         // per node: in a violation at the last point
	found      []routeFinding // this point's route violations

	// What the last audit point checked: routing tables and audible sets.
	tablesChecked, setsChecked int
}

// routeFinding is one routing violation of an audit point: an invalid
// next hop (kind != findLoop) or a two-node loop, attributed to its
// lower-indexed end, whose other end is nh.
type routeFinding struct {
	node int
	dst  pkt.NodeID
	kind uint8
	nh   int
}

const (
	findNextHopRange uint8 = iota
	findNextHopSelf
	findRouteToSelf
	findLoop
)

// reset arms a for a run on e's network that ends at end: the baselines
// are snapshot anew into the per-node storage a kept from its last run,
// and no violation is carried over (the last run's Err keeps its own).
func (a *auditor) reset(e *Engine, end des.Time) {
	nn := len(e.nodes)
	*a = auditor{
		e:          e,
		end:        end,
		lastSeq:    zeroed(a.lastSeq, nn),
		lastDF:     zeroed(a.lastDF, nn),
		lastWrites: zeroed(a.lastWrites, nn),
		scan:       zeroed(a.scan, nn),
		hot:        zeroed(a.hot, nn),
		found:      a.found[:0],
	}
	for i, n := range e.nodes {
		a.lastSeq[i] = n.Agent.SeqNo()
	}
}

// zeroed returns n zero values in s's storage when it has room.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// startAudit arms the engine's auditor for the run and schedules the
// first audit point at t=0.
func (e *Engine) startAudit(end des.Time) *auditor {
	a := &e.aud
	a.reset(e, end)
	e.simk.AtCall(0, a, 0, 0)
	return a
}

// testHookAuditPoint, when set, runs after every scheduled audit point;
// the differential tests compare the point against a full walk there.
var testHookAuditPoint func(a *auditor)

// HandleEvent implements des.Handler: run one audit point — in full at
// the first and the last — and schedule the next.
func (a *auditor) HandleEvent(int32, uint32) {
	next := a.e.simk.Now() + auditInterval
	a.check(a.points == 0 || next > a.end)
	if testHookAuditPoint != nil {
		testHookAuditPoint(a)
	}
	if next <= a.end {
		a.e.simk.AtCall(next, a, 0, 0)
	}
}

// Err returns the aggregated violations, or nil for a clean run.
func (a *auditor) Err() error { return a.rec.Err() }

// check runs one audit point; full checks every routing table and
// audible set instead of the changed ones.
func (a *auditor) check(full bool) {
	e := a.e
	now := e.simk.Now()
	a.points++

	if ps := e.simk.PastSchedules(); ps != a.lastPast {
		a.rec.Recordf("des/past-schedule", -1, now,
			"%d event(s) scheduled before the clock (+%d since last audit)", ps, ps-a.lastPast)
		a.lastPast = ps
	}
	if err := e.simk.AuditQueue(); err != nil {
		a.rec.Recordf("des/queue", -1, now, "%v", err)
	}
	sets, err := e.medium.AuditCoherence(full)
	if err != nil {
		a.rec.Recordf("radio/coherence", -1, now, "%v", err)
	}
	a.setsChecked = sets

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
	a.checkRoutes(now, full)
}

// checkRoutes checks structural next-hop validity and the two-node
// loop-freedom projection on the tables due at this point: all of them
// when full, else those written since the last point and those of nodes
// in a violation there. Expiry is evaluated read-only (r.Expires > now)
// instead of via Lookup, whose lazy invalidation writes the table. The
// findings are recorded in (node, destination) order, exactly as a walk
// of every table in node order would record them.
func (a *auditor) checkRoutes(now des.Time, full bool) {
	nodes := a.e.nodes
	for i, n := range nodes {
		w := n.Agent.Table().Writes()
		a.scan[i] = full || a.hot[i] || w != a.lastWrites[i]
		a.lastWrites[i] = w
		a.hot[i] = false
	}
	a.found = a.found[:0]
	a.tablesChecked = 0
	for i, n := range nodes {
		if a.scan[i] {
			a.tablesChecked++
			n.Agent.Table().Each(func(r routing.Route) { a.checkRoute(i, r, now) })
		}
	}
	if len(a.found) == 0 {
		return
	}
	slices.SortFunc(a.found, func(x, y routeFinding) int {
		return cmp.Or(cmp.Compare(x.node, y.node), cmp.Compare(x.dst, y.dst))
	})
	for _, f := range a.found {
		a.hot[f.node] = true
		if f.kind == findLoop {
			a.hot[f.nh] = true
		}
		a.rec.Record(f.violation(now))
	}
}

// checkRoute checks node i's route r. A two-node loop is reported by its
// lower-indexed end; when only the higher end's table is due, the check
// runs from there, so a loop closed by a write at either end is found.
func (a *auditor) checkRoute(i int, r routing.Route, now des.Time) {
	if !r.Valid || r.Expires <= now {
		return
	}
	nh := int(r.NextHop)
	switch {
	case nh < 0 || nh >= len(a.e.nodes):
		a.found = append(a.found, routeFinding{node: i, dst: r.Dst, kind: findNextHopRange, nh: nh})
		return
	case nh == i:
		a.found = append(a.found, routeFinding{node: i, dst: r.Dst, kind: findNextHopSelf, nh: nh})
		return
	case int(r.Dst) == i:
		a.found = append(a.found, routeFinding{node: i, dst: r.Dst, kind: findRouteToSelf, nh: nh})
		return
	}
	if int(r.Dst) == nh {
		return
	}
	lo, hi := i, nh
	if nh < i {
		if a.scan[nh] {
			return // nh's own check reports it
		}
		lo, hi = nh, i
	}
	back, ok := a.e.nodes[nh].Agent.Table().Get(r.Dst)
	if ok && back.Valid && back.Expires > now && int(back.NextHop) == i {
		a.found = append(a.found, routeFinding{node: lo, dst: r.Dst, kind: findLoop, nh: hi})
	}
}

// violation renders f as the auditor records it at now.
func (f routeFinding) violation(now des.Time) audit.Violation {
	v := audit.Violation{Invariant: "routing/next-hop", Node: f.node, Time: now}
	switch f.kind {
	case findNextHopRange:
		v.Detail = fmt.Sprintf("route to %d has out-of-range next hop %d", f.dst, f.nh)
	case findNextHopSelf:
		v.Detail = fmt.Sprintf("route to %d has the node itself as next hop", f.dst)
	case findRouteToSelf:
		v.Detail = fmt.Sprintf("node has a route to itself via %d", f.nh)
	case findLoop:
		v.Invariant = "routing/loop"
		v.Detail = fmt.Sprintf("two-node loop to %d: %d->%d and %d->%d", f.dst, f.node, f.nh, f.nh, f.node)
	}
	return v
}
