package sim

import (
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
//     packets held by the MAC queue and routing layer (leak detection) —
//     skipped for nodes the fault schedule ever crashes, whose crash
//     paths deliberately leak (a packet may still be on the air);
//   - routing/seq-monotone: a node's own AODV sequence number never
//     decreases (RFC 3561 §6.1; Fehnker et al.'s monotonicity invariant);
//   - routing/next-hop: every valid route's next hop is a real, distinct
//     node and no destination routes to itself;
//   - routing/loop: no two nodes are each other's next hop for the same
//     destination (both valid and unexpired) — the two-node projection
//     of AODV loop freedom.
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

	// everCrashed[i] marks nodes the materialised fault schedule crashes
	// at least once; their conservation check is skipped.
	everCrashed []bool

	lastSeq  []uint32 // per-node own sequence number at the last audit point
	lastDF   []uint64 // per-node double-free count already reported
	lastPast uint64   // past-schedule count already reported
}

// startAudit arms the pools' borrow ledgers, snapshots baselines and
// schedules the first audit point at t=0.
func (e *Engine) startAudit(end des.Time, everCrashed []bool) *auditor {
	a := &auditor{
		e:           e,
		end:         end,
		everCrashed: everCrashed,
		lastSeq:     make([]uint32, len(e.nodes)),
		lastDF:      make([]uint64, len(e.nodes)),
	}
	for i, n := range e.nodes {
		a.lastSeq[i] = n.Agent.SeqNo()
	}
	e.simk.AtCall(0, a, 0, 0)
	return a
}

// HandleEvent implements des.Handler: run one audit point and schedule
// the next.
func (a *auditor) HandleEvent(int32, uint32) {
	a.check()
	if next := a.e.simk.Now() + auditInterval; next <= a.end {
		a.e.simk.AtCall(next, a, 0, 0)
	}
}

// Err returns the aggregated violations, or nil for a clean run.
func (a *auditor) Err() error { return a.rec.Err() }

func (a *auditor) check() {
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
	if err := e.medium.AuditCoherence(); err != nil {
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
		if a.everCrashed == nil || !a.everCrashed[i] {
			held := n.Mac.HeldPackets() + n.Agent.HeldPackets()
			if live := pool.LiveBorrowed(); live != held {
				a.rec.Recordf("pkt/conservation", i, now,
					"%d packet(s) borrowed from the pool but %d held by MAC+routing", live, held)
			}
		}
	}
	a.checkRoutes(now)
}

// checkRoutes walks every routing table once, checking structural
// next-hop validity and the two-node loop-freedom projection. Expiry is
// evaluated read-only (r.Expires > now) instead of via Lookup, whose
// lazy invalidation writes the table.
func (a *auditor) checkRoutes(now des.Time) {
	e := a.e
	nn := len(e.nodes)
	for i, n := range e.nodes {
		n.Agent.Table().Each(func(r *routing.Route) {
			if !r.Valid || r.Expires <= now {
				return
			}
			nh := int(r.NextHop)
			switch {
			case nh < 0 || nh >= nn:
				a.rec.Recordf("routing/next-hop", i, now,
					"route to %d has out-of-range next hop %d", r.Dst, nh)
				return
			case nh == i:
				a.rec.Recordf("routing/next-hop", i, now,
					"route to %d has the node itself as next hop", r.Dst)
				return
			case int(r.Dst) == i:
				a.rec.Recordf("routing/next-hop", i, now,
					"node has a route to itself via %d", nh)
				return
			}
			// Two-node loop: i routes dst via nh while nh routes the same
			// dst back via i (both live). Only check each pair once.
			if int(r.Dst) == nh || nh < i {
				return
			}
			back := e.nodes[nh].Agent.Table().Get(r.Dst)
			if back != nil && back.Valid && back.Expires > now && int(back.NextHop) == i {
				a.rec.Recordf("routing/loop", i, now,
					"two-node loop to %d: %d->%d and %d->%d", r.Dst, i, nh, nh, i)
			}
		})
	}
}
