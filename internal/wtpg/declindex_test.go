package wtpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"batchsched/internal/model"
)

// Differential suite for the per-file declaration index. The scans the index
// replaced are kept here as oracles — the Txns()+LockNeed() conflicter scan,
// the slot-scan chain-form test, and the all-pairs Add — and driven against
// the index over random interleavings of admission, commit, eviction (a
// random survivor leaves mid-run, as in service mode), slot reuse, grants and
// OrientAll batches. Every answer must match exactly, order included.

// oracleConflicters is the scan conflictersOn used before the index: every
// resident other than t whose declared need on f is incompatible with m, in
// insertion order.
func oracleConflicters(g *Graph, t *model.Txn, f model.FileID, m model.Mode) []*model.Txn {
	var out []*model.Txn
	for _, u := range g.Txns() {
		if u.ID == t.ID {
			continue
		}
		um, ok := u.LockNeed()[f]
		if ok && !um.Compatible(m) {
			out = append(out, u)
		}
	}
	return out
}

// indexConflicters answers the same question from the index.
func indexConflicters(g *Graph, t *model.Txn, f model.FileID, m model.Mode) []*model.Txn {
	var out []*model.Txn
	for _, d := range g.Declarers(f) {
		if d.Txn.ID != t.ID && !d.Mode.Compatible(m) {
			out = append(out, d.Txn)
		}
	}
	return out
}

// oracleDeclCounts counts f's declarers (and X declarers) by scanning.
func oracleDeclCounts(g *Graph, f model.FileID) (n, nx int) {
	for _, u := range g.Txns() {
		if um, ok := u.LockNeed()[f]; ok {
			n++
			if um == model.X {
				nx++
			}
		}
	}
	return n, nx
}

// oracleChainFormAfterAdd is the slot-scan chain-form test: every live
// resident is tested against t, and the component check walks the edge set.
func oracleChainFormAfterAdd(g *Graph, t *model.Txn) bool {
	var nbrs []int64
	for s, u := range g.txnAt {
		if g.live[s] && len(conflictFiles(t, u)) > 0 {
			nbrs = append(nbrs, u.ID)
		}
	}
	if len(nbrs) > 2 {
		return false
	}
	for _, u := range nbrs {
		if len(g.nbrs[g.slots[u]]) > 1 {
			return false
		}
	}
	if len(nbrs) < 2 {
		return true
	}
	seen := map[int64]bool{nbrs[0]: true}
	stack := []int64{nbrs[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.edgeSet() {
			var u int64
			switch v {
			case e.a:
				u = e.b
			case e.b:
				u = e.a
			default:
				continue
			}
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return !seen[nbrs[1]]
}

// addAllPairs is the Add that tested t against every resident in insertion
// order. It also indexes t, so the shared Remove can unindex it.
func addAllPairs(g *Graph, t *model.Txn) {
	s := g.allocSlot(t.ID)
	g.txns[t.ID] = t
	g.txnAt[s] = t
	g.order = append(g.order, t.ID)
	for _, id := range g.order[:len(g.order)-1] {
		u := g.txns[id]
		files := conflictFiles(t, u)
		if len(files) == 0 {
			continue
		}
		a, b := pairKey(t.ID, u.ID)
		ta, tb := g.txns[a], g.txns[b]
		wAB, _ := model.ConflictWeight(tb, ta)
		wBA, _ := model.ConflictWeight(ta, tb)
		e := &edge{a: a, b: b, sa: g.slots[a], sb: g.slots[b], eid: g.allocEID(),
			wAB: wAB, wBA: wBA, files: files}
		g.insertNeighbor(s, u.ID, e)
		g.insertNeighbor(g.slots[u.ID], t.ID, e)
		g.edgesDirty = true
	}
	g.indexDecls(t, s)
}

// edgeSigs renders every edge with its slots, dense ID, weights, conflict
// files and orientation, in (a, b) order.
func edgeSigs(g *Graph) []string {
	var out []string
	for _, e := range g.edgeSet() {
		out = append(out, fmt.Sprintf("%d-%d s%d/%d eid%d w%v/%v f%v d%d",
			e.a, e.b, e.sa, e.sb, e.eid, e.wAB, e.wBA, e.files, e.dir))
	}
	return out
}

// randDeclTxn draws a transaction of 1-4 steps over filePool files with
// mixed S/X lock modes; a file may be read and later written. File k of the
// pool has ID fileID(k).
func randDeclTxn(r *rand.Rand, id int64, filePool int, fileID func(int) model.FileID) *model.Txn {
	n := 1 + r.Intn(4)
	steps := make([]model.Step, 0, n)
	for i := 0; i < n; i++ {
		m := model.S
		if r.Intn(2) == 0 {
			m = model.X
		}
		c := float64(1+r.Intn(30)) / 10
		steps = append(steps, model.Step{File: fileID(r.Intn(filePool)),
			Write: m == model.X, LockMode: m, Cost: c, DeclaredCost: c})
	}
	return model.NewTxn(id, 0, steps)
}

// checkDeclIndex compares every index answer against its oracle: for each
// resident on each of its files (LOW's C(q) on a request), and for each
// probe (an admission candidate not in the graph) on each of its files plus
// the chain-form verdict.
func checkDeclIndex(t *testing.T, g *Graph, probes []*model.Txn) {
	t.Helper()
	ids := func(ts []*model.Txn) []int64 {
		out := make([]int64, len(ts))
		for i, x := range ts {
			out[i] = x.ID
		}
		return out
	}
	conflicters := func(x *model.Txn) {
		files, modes := x.LockNeedSorted()
		for i, f := range files {
			want := ids(oracleConflicters(g, x, f, modes[i]))
			if got := ids(indexConflicters(g, x, f, modes[i])); !reflect.DeepEqual(got, want) {
				t.Fatalf("C(T%d, file %d, %v): index %v, scan %v", x.ID, f, modes[i], got, want)
			}
			wn, wnx := oracleDeclCounts(g, f)
			if n, nx := g.DeclCounts(f); n != wn || nx != wnx {
				t.Fatalf("DeclCounts(%d) = %d/%d X, scan %d/%d X", f, n, nx, wn, wnx)
			}
		}
	}
	for _, x := range g.Txns() {
		conflicters(x)
	}
	var ck AddCheck
	for _, p := range probes {
		conflicters(p)
		want := oracleChainFormAfterAdd(g, p)
		if got := g.ChainFormAfterAdd(p); got != want {
			t.Fatalf("ChainFormAfterAdd(T%d) = %v, scan %v", p.ID, got, want)
		}
		if got := g.ChainFormAfterAddWith(p, &ck); got != want {
			t.Fatalf("ChainFormAfterAddWith(T%d) = %v, scan %v", p.ID, got, want)
		}
	}
}

// TestDeclIndexDifferential runs 600 seeded interleavings against two graphs
// fed the same operations: one built by the indexed Add, one by the
// all-pairs Add. Edge sets (dense IDs included) must stay identical, and
// every index answer must match its scan. Odd seeds admit only when the
// chain-form test passes (GOW), so chain verdicts are exercised on graphs in
// chain form; even seeds admit unconditionally (LOW-like dense graphs).
// File IDs are dense from 0 for most seeds, and negative or sparse and huge
// for the rest: the index must not assume a small non-negative universe.
func TestDeclIndexDifferential(t *testing.T) {
	const (
		interleavings = 600
		opsPerRun     = 60
		maxPopulation = 12
	)
	for seed := int64(1); seed <= interleavings; seed++ {
		r := rand.New(rand.NewSource(seed))
		filePool := 3 + r.Intn(10)
		gowMode := seed%2 == 1
		fileID := dense
		switch seed % 5 {
		case 3:
			fileID = func(k int) model.FileID { return model.FileID(k - filePool/2) }
		case 4:
			fileID = func(k int) model.FileID { return model.FileID(k) << 40 }
		}
		g, o := New(), New()
		nextID := int64(1)
		fresh := func() *model.Txn {
			x := randDeclTxn(r, nextID, filePool, fileID)
			nextID++
			return x
		}
		probes := make([]*model.Txn, 3)
		check := func(op string) {
			if got, want := edgeSigs(g), edgeSigs(o); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d after %s: edge sets differ\nindexed:   %v\nall-pairs: %v", seed, op, got, want)
			}
			if !reflect.DeepEqual(g.order, o.order) {
				t.Fatalf("seed %d after %s: insertion orders differ", seed, op)
			}
			for i := range probes {
				probes[i] = fresh()
			}
			checkDeclIndex(t, g, probes)
		}
		for op := 0; op < opsPerRun; op++ {
			switch c := r.Intn(10); {
			case c < 4 && g.Len() < maxPopulation: // admit (reusing freed slots)
				x := fresh()
				if gowMode && !g.ChainFormAfterAdd(x) {
					continue
				}
				g.Add(x)
				addAllPairs(o, x)
				check(fmt.Sprintf("Add(T%d)", x.ID))
			case c < 5 && g.Len() > 0: // commit the oldest
				id := g.order[0]
				g.Remove(id)
				o.Remove(id)
				check(fmt.Sprintf("commit T%d", id))
			case c < 7 && g.Len() > 0: // evict a random survivor
				id := g.order[r.Intn(len(g.order))]
				g.Remove(id)
				o.Remove(id)
				check(fmt.Sprintf("evict T%d", id))
			case c < 8 && g.Len() > 0: // grant a random declared access
				x := g.txns[g.order[r.Intn(len(g.order))]]
				files, modes := x.LockNeedSorted()
				i := r.Intn(len(files))
				eg, eo := g.Grant(x, files[i], modes[i]), o.Grant(x, files[i], modes[i])
				if (eg == nil) != (eo == nil) {
					t.Fatalf("seed %d: Grant(T%d, %d) = %v vs %v", seed, x.ID, files[i], eg, eo)
				}
				check(fmt.Sprintf("grant T%d on %d", x.ID, files[i]))
			default: // OrientAll over a random batch of joined pairs
				if g.Len() < 2 {
					continue
				}
				var pairs [][2]int64
				for k := 1 + r.Intn(3); k > 0; k-- {
					x := g.order[r.Intn(len(g.order))]
					y := g.order[r.Intn(len(g.order))]
					if _, _, _, ok := g.EdgeDir(x, y); ok && x != y {
						pairs = append(pairs, [2]int64{x, y})
					}
				}
				eg, eo := g.OrientAll(pairs), o.OrientAll(pairs)
				if (eg == nil) != (eo == nil) {
					t.Fatalf("seed %d: OrientAll(%v) = %v vs %v", seed, pairs, eg, eo)
				}
				check(fmt.Sprintf("OrientAll(%v)", pairs))
			}
		}
	}
}

func dense(k int) model.FileID { return model.FileID(k) }

// TestDeclIndexConcurrentReaders runs the admission prescreen's read paths
// — ChainFormAfterAddWith with per-worker scratch, Declarers and DeclCounts
// — from several goroutines against one graph and requires the sequential
// answers. Under -race it proves the read paths share no scratch.
func TestDeclIndexConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := New()
	for id := int64(1); id <= 40; id++ {
		if x := randDeclTxn(r, id, 16, dense); g.ChainFormAfterAdd(x) {
			g.Add(x)
		}
	}
	probes := make([]*model.Txn, 64)
	want := make([]bool, len(probes))
	for i := range probes {
		probes[i] = randDeclTxn(r, int64(1000+i), 16, dense)
		probes[i].LockNeedSorted() // warm the per-candidate caches up front
		want[i] = oracleChainFormAfterAdd(g, probes[i])
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ck AddCheck
			for i, p := range probes {
				if got := g.ChainFormAfterAddWith(p, &ck); got != want[i] {
					errs <- fmt.Sprintf("worker %d: ChainFormAfterAddWith(T%d) = %v, want %v", w, p.ID, got, want[i])
					return
				}
				files, modes := p.LockNeedSorted()
				for j, f := range files {
					n, _ := g.DeclCounts(f)
					if c := len(indexConflicters(g, p, f, modes[j])); c > n {
						errs <- fmt.Sprintf("worker %d: %d conflicters on file %d with %d declarers", w, c, f, n)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
