package routing

// Hooks for the external integration tests (package routing_test).

// MoveSlabs moves c's route, duplicate-ring and neighbour slabs to fresh,
// exactly full arrays and poisons the old ones (see differential_test.go):
// whatever still points into them is exposed, and each structure's next
// insert moves its slab again.
func (c *Core) MoveSlabs() {
	moveTableSlab(c.table)
	moveDupSlab(c.dup)
	moveNeighborSlab(c.nbrs)
}

// SlabSizes returns {len, cap} of the route, duplicate-ring and neighbour
// slabs.
func (c *Core) SlabSizes() (routes, rings, nbrs [2]int) {
	return [2]int{len(c.table.entries), cap(c.table.entries)},
		[2]int{len(c.dup.rings), cap(c.dup.rings)},
		[2]int{len(c.nbrs.info), cap(c.nbrs.info)}
}
