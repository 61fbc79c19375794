package sched

import (
	"fmt"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/wtpg"
)

// holdsSufficient reports whether t already holds a lock on its current
// step's file strong enough for the step's mode, in which case the request
// is trivially granted (locks are held to commit, so a later step on the
// same file needs no new decision).
func holdsSufficient(locks *lock.Table, t *model.Txn) bool {
	st := t.CurrentStep()
	held, ok := locks.Holds(t.ID, st.File)
	return ok && (held == model.X || st.LockMode == model.S)
}

// seedHolderOrder records, for a freshly admitted transaction t, the
// serialization orders already implied by the lock table: every current
// holder h of a file whose held mode conflicts with t's declared need on
// that file must precede t. Without this, a grant made before t arrived
// would be invisible to the WTPG and the deadlock prediction of C2PL, GOW
// and LOW would have blind spots.
//
// The orientations all point into the fresh sink t, so they can never close
// a cycle; a failure here is a programming error and panics. The pairs are
// appended into buf[:0], which is returned for reuse.
func seedHolderOrder(buf [][2]int64, g *wtpg.Graph, locks *lock.Table, t *model.Txn) [][2]int64 {
	files, modes := t.LockNeedSorted()
	pairs := buf[:0]
	for i, f := range files {
		for _, h := range locks.Holders(f) {
			if h == t.ID || !g.Has(h) {
				continue
			}
			hm, _ := locks.Holds(h, f)
			if !hm.Compatible(modes[i]) {
				pairs = append(pairs, [2]int64{h, t.ID})
			}
		}
	}
	if err := g.OrientAll(pairs); err != nil {
		panic(fmt.Sprintf("sched: seeding holder order for T%d failed: %v", t.ID, err))
	}
	return pairs
}

// conflictersOn appends to buf the active transactions (in the graph) other
// than t whose declared need on file f is incompatible with mode m — the set
// C(q) of the paper's Fig. 7, in deterministic (insertion) order — each with
// its declared mode on f. It reads only the graph's declaration index.
func conflictersOn(buf []wtpg.Decl, g *wtpg.Graph, t *model.Txn, f model.FileID, m model.Mode) []wtpg.Decl {
	for _, d := range g.Declarers(f) {
		if d.Txn.ID != t.ID && !d.Mode.Compatible(m) {
			buf = append(buf, d)
		}
	}
	return buf
}
