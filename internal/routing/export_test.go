package routing

import "clnlr/internal/pkt"

// Hooks for the external integration tests (package routing_test) and
// helpers only the tests use.

// New builds a routing core ready to run: Attach on env.Sim and env.Pool,
// then Reset.
func New(env Env, cfg Config, policy RREQPolicy) *Core {
	c := Attach(env.Sim, env.Pool)
	c.Reset(env, cfg, policy)
	return c
}

// Invalidate marks the route to dst broken and returns it; ok is false if
// there was no valid route. The sequence number is bumped so stale copies
// of the dead route cannot be re-installed.
func (t *Table) Invalidate(dst pkt.NodeID) (r Route, ok bool) {
	p := t.slot(dst)
	if p == nil || !p.Valid {
		return Route{}, false
	}
	t.kill(p)
	return *p, true
}

// MoveSlabs moves c's route and neighbour slabs to fresh, exactly full
// arrays, and its duplicate cache's ring and index to fresh arrays of the
// same lengths, and poisons the old ones (see differential_test.go):
// whatever still points into them is exposed, and the table's and the
// neighbour table's next insert moves its slab again.
func (c *Core) MoveSlabs() {
	moveTableSlab(c.table)
	moveDupSlab(c.dup)
	moveNeighborSlab(c.nbrs)
}

// SlabSizes returns {len, cap} of the route and neighbour slabs and
// {live floods, ring capacity} of the duplicate cache.
func (c *Core) SlabSizes() (routes, floods, nbrs [2]int) {
	return [2]int{len(c.table.entries), cap(c.table.entries)},
		[2]int{c.dup.Len(), len(c.dup.ring)},
		[2]int{len(c.nbrs.info), cap(c.nbrs.info)}
}
