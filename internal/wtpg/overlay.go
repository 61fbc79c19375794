package wtpg

// Overlay evaluation (DESIGN.md §17): score E(q) for a candidate grant
// against an immutable base graph plus a small per-worker delta, instead of
// the exclusive apply/undo speculation of Evaluate. K candidates can then be
// scored concurrently — each worker owns one Overlay, the graph itself is
// only read — and the critical path is maintained incrementally: the
// longest-path value of every slot is cached once per decision (EvalBase)
// and recomputed only for the slots downstream of the candidate's patched
// edges.
//
// Byte-identity with the sequential path is structural, not approximate:
// the overlay runs the very same algorithms (GrantOrientations, orientEdge's
// row absorption, the closure fixpoint over edgeSet in the same order, the
// Kahn longest-path relaxation with the same float associativity) with reads
// indirected through the patch. The incremental critical path is exact
// because the dirty set — the patched edges' successor slots plus everything
// they reach under the patched orientation — is downstream-closed: a clean
// slot has only clean predecessors (a dirty predecessor would make it
// reachable from a patched successor, hence dirty), so every cached clean
// value equals what a full recomputation would produce, bit for bit, and
// orienting edges only ever lengthens paths, so the answer is
// max(base answer, recomputed dirty values).

import (
	"math"
	"math/bits"

	"batchsched/internal/model"
)

// EvalBase freezes the shared, read-only inputs of one decision batch: the
// T0 weight of every live slot, the base longest-path value per slot, the
// base critical-path answer, and the materialized edge set. Build it once
// per decision (after the last graph mutation), then score any number of
// candidates concurrently against it with per-worker Overlays.
type EvalBase struct {
	g     *Graph
	edges []*edge   // edgeSet(), materialized before fan-out
	w0    []float64 // frozen T0 weight per slot
	best  []float64 // base longest-path value per live slot
	ans   float64   // base critical-path answer

	// Build scratch.
	indeg []int
	queue []int
}

// Graph returns the graph the base was built against.
func (b *EvalBase) Graph() *Graph { return b.g }

// CriticalPath returns the frozen base critical-path answer.
func (b *EvalBase) CriticalPath() float64 { return b.ans }

// BuildEvalBase computes the base into b (reusing its buffers). It mirrors
// CriticalPath exactly — same initialization, same relaxation — so the
// cached values are bitwise what the sequential evaluation would compute,
// and it materializes the edge-set cache so concurrent overlay readers never
// race on it. Must be called with no speculative scope open and re-called
// after any graph mutation before further overlay evaluations.
func (g *Graph) BuildEvalBase(w0 T0Weight, b *EvalBase) error {
	if g.specActive {
		panic("wtpg: BuildEvalBase during speculative evaluation")
	}
	b.g = g
	b.edges = g.edgeSet()
	n := len(g.ids)
	b.w0 = growFloats(b.w0, n)
	b.best = growFloats(b.best, n)
	b.indeg = growInts(b.indeg, n)
	indeg, best := b.indeg[:n], b.best[:n]
	for _, e := range b.edges {
		if e.dir == Undetermined {
			continue
		}
		if e.dir == AToB {
			indeg[e.sb]++
		} else {
			indeg[e.sa]++
		}
	}
	queue := b.queue[:0]
	for s, lv := range g.live {
		if !lv {
			continue
		}
		b.w0[s] = w0(g.txnAt[s])
		best[s] = b.w0[s]
		if indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	processed := 0
	var ans float64
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		processed++
		v := best[s]
		if v > ans {
			ans = v
		}
		for _, e := range g.nbrs[s] {
			var to int
			var w float64
			switch e.dir {
			case AToB:
				if e.sa != s {
					continue
				}
				to, w = e.sb, e.wAB
			case BToA:
				if e.sb != s {
					continue
				}
				to, w = e.sa, e.wBA
			default:
				continue
			}
			if x := v + w; x > best[to] {
				best[to] = x
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	b.queue = queue[:0]
	if processed != len(g.txns) {
		for i := range indeg {
			indeg[i] = 0
		}
		return ErrDeadlock
	}
	b.ans = ans
	return nil
}

// Overlay is one worker's private delta over a base graph: a generation-
// stamped edge-direction patch plus copy-on-write reachability rows for the
// slots the patch touches. It never writes the graph, so any number of
// overlays may evaluate concurrently against the same EvalBase. The zero
// value is ready to use; reuse one per worker to amortize its buffers.
type Overlay struct {
	g   *Graph
	gen uint64

	dirs []Dir    // patched direction per edge ID
	dgen []uint64 // generation stamp per edge ID

	rows [][]uint64 // overlay reachability row per slot
	rgen []uint64   // generation stamp per slot row

	patched []*edge // edges oriented in this evaluation, in orientation order
	pairs   [][2]int64

	// Incremental critical-path scratch.
	dirty  []uint64 // bitset of slots whose cached value the patch invalidates
	dslots []int
	indeg  []int
	best   []float64
	queue  []int
}

// reset opens a fresh evaluation against base b. Bumping the generation
// invalidates the whole patch lazily; gen starts at 1 so zero-valued stamps
// never match.
func (o *Overlay) reset(b *EvalBase) {
	o.g = b.g
	o.gen++
	if n := o.g.eidCap; len(o.dirs) < n {
		o.dirs = append(o.dirs, make([]Dir, n-len(o.dirs))...)
		o.dgen = append(o.dgen, make([]uint64, n-len(o.dgen))...)
	}
	if n := len(o.g.ids); len(o.rgen) < n {
		o.rows = append(o.rows, make([][]uint64, n-len(o.rows))...)
		o.rgen = append(o.rgen, make([]uint64, n-len(o.rgen))...)
	}
	o.patched = o.patched[:0]
}

// dir reads an edge's orientation through the patch.
func (o *Overlay) dir(e *edge) Dir {
	if o.dgen[e.eid] == o.gen {
		return o.dirs[e.eid]
	}
	return e.dir
}

func (o *Overlay) setDir(e *edge, d Dir) {
	o.dgen[e.eid] = o.gen
	o.dirs[e.eid] = d
}

// row reads a slot's reachability row through the patch.
func (o *Overlay) row(s int) []uint64 {
	if o.rgen[s] == o.gen {
		return o.rows[s]
	}
	return o.g.reach[s]
}

// mrow returns a writable overlay copy of slot s's row (copy-on-write).
func (o *Overlay) mrow(s int) []uint64 {
	if o.rgen[s] == o.gen {
		return o.rows[s]
	}
	o.rgen[s] = o.gen
	row := o.rows[s]
	row = append(row[:0], o.g.reach[s]...)
	o.rows[s] = row
	return row
}

// orientEdge is Graph.orientEdge with every read and write indirected
// through the patch: refuse (before recording anything) when the successor
// already reaches the predecessor, then absorb the successor's row into
// every row that reaches the predecessor, plus the predecessor's own.
func (o *Overlay) orientEdge(e *edge, want Dir) error {
	sf, st := e.sa, e.sb
	if want == BToA {
		sf, st = e.sb, e.sa
	}
	if bitGet(o.row(st), sf) {
		return ErrDeadlock
	}
	o.setDir(e, want)
	o.patched = append(o.patched, e)
	tr := o.row(st)
	for x, lv := range o.g.live {
		if !lv {
			continue
		}
		if x != sf && !bitGet(o.row(x), sf) {
			continue
		}
		row := o.row(x)
		changed := !bitGet(row, st)
		if !changed {
			for w, bits := range tr {
				if bits&^row[w] != 0 {
					changed = true
					break
				}
			}
		}
		if !changed {
			continue
		}
		row = o.mrow(x)
		for w, bits := range tr {
			row[w] |= bits
		}
		bitPut(row, st)
	}
	return nil
}

// applyOrientations mirrors Graph.applyOrientations on the patch: orient the
// requested pairs, then close to fixpoint over the same edge enumeration in
// the same order, so the sequence of orientations — and therefore any
// ErrDeadlock — is identical to the sequential path.
func (o *Overlay) applyOrientations(b *EvalBase, pairs [][2]int64) error {
	g := o.g
	for _, p := range pairs {
		e, ok := g.edgeBetween(p[0], p[1])
		if !ok {
			return ErrDeadlock // no edge: cannot happen for GrantOrientations output
		}
		want := AToB
		if p[0] == e.b {
			want = BToA
		}
		d := o.dir(e)
		if d == want {
			continue
		}
		if d != Undetermined {
			return ErrDeadlock
		}
		if err := o.orientEdge(e, want); err != nil {
			return err
		}
	}
	for {
		changed := false
		for _, e := range b.edges {
			if o.dir(e) != Undetermined {
				continue
			}
			ab := bitGet(o.row(e.sa), e.sb)
			ba := bitGet(o.row(e.sb), e.sa)
			switch {
			case ab && ba:
				return ErrDeadlock
			case ab:
				if err := o.orientEdge(e, AToB); err != nil {
					return err
				}
				changed = true
			case ba:
				if err := o.orientEdge(e, BToA); err != nil {
					return err
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// criticalPath recomputes the longest path over the dirty set only. The
// dirty set is every patched edge's successor slot plus all slots that
// successor reaches under the patched orientation; it is downstream-closed,
// so clean slots keep their cached base values (which are exact) and dirty
// slots relax over cached predecessors plus each other in one small Kahn
// pass.
func (o *Overlay) criticalPath(b *EvalBase) (float64, error) {
	g := o.g
	nw := g.words
	if len(o.dirty) < nw {
		o.dirty = append(o.dirty, make([]uint64, nw-len(o.dirty))...)
	}
	dirty := o.dirty[:nw]
	for i := range dirty {
		dirty[i] = 0
	}
	for _, e := range o.patched {
		st := e.sb
		if o.dir(e) == BToA {
			st = e.sa
		}
		bitPut(dirty, st)
		for w, bits := range o.row(st) {
			dirty[w] |= bits
		}
	}
	// Enumerate dirty slots in ascending slot order. Reach rows only ever
	// carry live slots, but guard anyway: a dead slot's frozen w0 is garbage.
	dslots := o.dslots[:0]
	for w, word := range dirty {
		for word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			if g.live[s] {
				dslots = append(dslots, s)
			}
			word &= word - 1
		}
	}
	n := len(g.ids)
	o.indeg = growInts(o.indeg, n)
	o.best = growFloats(o.best, n)
	queue := o.queue[:0]
	for _, s := range dslots {
		v := b.w0[s]
		deg := 0
		for _, e := range g.nbrs[s] {
			var from int
			var w float64
			switch o.dir(e) {
			case AToB:
				if e.sb != s {
					continue
				}
				from, w = e.sa, e.wAB
			case BToA:
				if e.sa != s {
					continue
				}
				from, w = e.sb, e.wBA
			default:
				continue
			}
			if bitGet(dirty, from) {
				deg++
				continue
			}
			if x := b.best[from] + w; x > v {
				v = x
			}
		}
		o.best[s] = v
		o.indeg[s] = deg
		if deg == 0 {
			queue = append(queue, s)
		}
	}
	processed := 0
	ans := b.ans
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		processed++
		v := o.best[s]
		if v > ans {
			ans = v
		}
		for _, e := range g.nbrs[s] {
			var to int
			var w float64
			switch o.dir(e) {
			case AToB:
				if e.sa != s {
					continue
				}
				to, w = e.sb, e.wAB
			case BToA:
				if e.sb != s {
					continue
				}
				to, w = e.sa, e.wBA
			default:
				continue
			}
			if !bitGet(dirty, to) {
				continue // downstream closure: cannot happen; clean values are final
			}
			if x := v + w; x > o.best[to] {
				o.best[to] = x
			}
			o.indeg[to]--
			if o.indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	o.queue = queue[:0]
	o.dslots = dslots[:0]
	if processed != len(dslots) {
		return math.Inf(1), ErrDeadlock
	}
	return ans, nil
}

// Evaluate computes E(q) for "transaction t asks mode m on file f" against
// the base, without touching the graph: the overlay analogue of the
// package-level Evaluate, returning a bitwise-identical result. Safe to call
// from many overlays concurrently as long as the base is current (built
// since the last graph mutation) and nothing mutates the graph underneath.
func (o *Overlay) Evaluate(b *EvalBase, t *model.Txn, f model.FileID, m model.Mode) float64 {
	g := b.g
	pairs, err := g.GrantOrientations(o.pairs, t, f, m)
	o.pairs = pairs
	if err != nil {
		return math.Inf(1)
	}
	o.reset(b)
	if err := o.applyOrientations(b, pairs); err != nil {
		return math.Inf(1)
	}
	v, err := o.criticalPath(b)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
