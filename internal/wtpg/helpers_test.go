package wtpg

import "batchsched/internal/model"

// Test-only graph API: the scheduler hot paths answer every conflict
// question from the declaration index and speculate on the live graph, so
// nothing outside the tests needs a transaction list or a deep copy.

// Txns returns the transactions in insertion order.
func (g *Graph) Txns() []*model.Txn {
	out := make([]*model.Txn, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.txns[id])
	}
	return out
}

// Clone returns a deep copy of the graph sharing the (immutable) transaction
// declarations. Transactions are re-added in insertion order, so the clone's
// declaration index lists them in the same order as the original's.
func (g *Graph) Clone() *Graph {
	c := New()
	for _, id := range g.order {
		s := c.allocSlot(id)
		c.txns[id] = g.txns[id]
		c.txnAt[s] = g.txns[id]
		c.order = append(c.order, id)
		c.indexDecls(g.txns[id], s)
	}
	for _, e := range g.edgeSet() {
		ce := &edge{a: e.a, b: e.b, sa: c.slots[e.a], sb: c.slots[e.b],
			eid: c.allocEID(), wAB: e.wAB, wBA: e.wBA, dir: e.dir,
			files: append([]model.FileID(nil), e.files...)}
		c.insertNeighbor(ce.sa, e.b, ce)
		c.insertNeighbor(ce.sb, e.a, ce)
	}
	c.edgesDirty = true
	for s, lv := range c.live {
		if lv {
			c.recomputeRow(s)
		}
	}
	return c
}

// conflictFiles lists the files on which the declared needs of x and y
// request incompatible lock modes, in ascending order.
func conflictFiles(x, y *model.Txn) []model.FileID {
	return appendConflictFiles(nil, x, y)
}
