package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"batchsched/internal/model"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// LOW's K-bound admission test and C(q) read the WTPG's per-file declaration
// index. These tests difference them against the list-building scans they
// replaced, and pin the decision paths allocation-free on an Exp-1-sized
// graph.

// scanConflicters is the pre-index C(q): every resident other than t whose
// declared need on f is incompatible with m, in admission order.
func scanConflicters(residents []*model.Txn, t *model.Txn, f model.FileID, m model.Mode) []*model.Txn {
	var out []*model.Txn
	for _, u := range residents {
		if u.ID == t.ID {
			continue
		}
		if um, ok := u.LockNeed()[f]; ok && !um.Compatible(m) {
			out = append(out, u)
		}
	}
	return out
}

// scanAdmitBlocked is the pre-index K-bound test, built from conflicter lists.
func scanAdmitBlocked(residents []*model.Txn, t *model.Txn, k int) bool {
	for f, m := range t.LockNeed() {
		cs := scanConflicters(residents, t, f, m)
		if len(cs) > k {
			return true
		}
		for _, u := range cs {
			if len(scanConflicters(residents, u, f, u.LockNeed()[f]))+1 > k {
				return true
			}
		}
	}
	return false
}

// randMixedTxn draws 1-4 steps over filePool files with mixed S/X modes.
func randMixedTxn(r *rand.Rand, id int64, filePool int) *model.Txn {
	n := 1 + r.Intn(4)
	steps := make([]model.Step, 0, n)
	for i := 0; i < n; i++ {
		m := model.S
		if r.Intn(2) == 0 {
			m = model.X
		}
		steps = append(steps, model.Step{File: model.FileID(r.Intn(filePool)),
			Write: m == model.X, LockMode: m, Cost: 1, DeclaredCost: 1})
	}
	return model.NewTxn(id, 0, steps)
}

// TestLOWAdmitMatchesScan drives 300 random admit/commit interleavings at
// K = 0..4 and requires the index-count admission test and C(q) to agree
// with the scans, C(q) order included.
func TestLOWAdmitMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := DefaultParams()
		p.K = r.Intn(5)
		s := NewLOW(p).(*low)
		filePool := 2 + r.Intn(8)
		var residents []*model.Txn
		for id := int64(1); id <= 60; id++ {
			if len(residents) > 0 && r.Intn(3) == 0 {
				i := r.Intn(len(residents))
				s.Committed(residents[i])
				residents = append(residents[:i], residents[i+1:]...)
			}
			c := randMixedTxn(r, id, filePool)
			want := scanAdmitBlocked(residents, c, p.K)
			if got := s.admitBlocked(c); got != want {
				t.Fatalf("seed %d K=%d: admitBlocked(%v) = %v, scan %v", seed, p.K, c, got, want)
			}
			if ok, _ := s.Admit(c); ok {
				residents = append(residents, c)
			}
			for _, u := range residents {
				files, modes := u.LockNeedSorted()
				for i, f := range files {
					var got []*model.Txn
					for _, d := range conflictersOn(nil, s.graph, u, f, modes[i]) {
						if d.Mode != d.Txn.LockNeed()[f] {
							t.Fatalf("seed %d: C(T%d) lists T%d with mode %v, declared %v", seed, u.ID, d.Txn.ID, d.Mode, d.Txn.LockNeed()[f])
						}
						got = append(got, d.Txn)
					}
					if want := scanConflicters(residents, u, f, modes[i]); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: C(T%d, file %d) = %v, scan %v", seed, u.ID, f, got, want)
					}
				}
			}
		}
	}
}

// exp1Txns draws n Experiment-1 transactions (Pattern1 over 16 files) with
// consecutive IDs from id.
func exp1Txns(rng *sim.RNG, id int64, n int) []*model.Txn {
	gen := workload.NewExp1(16)
	out := make([]*model.Txn, n)
	for i := range out {
		out[i] = model.NewTxn(id+int64(i), 0, gen.Steps(rng))
	}
	return out
}

// warmExp1 fills s the way a saturated Exp-1 run does: Exp-1 transactions
// are admitted until 64 draws in a row are refused, then every resident
// requests its first step once, so the lock table holds what a running
// simulation's would. It returns the residents and 64 fresh candidates.
func warmExp1(s Scheduler) (residents, cands []*model.Txn) {
	rng := sim.NewRNG(1)
	id := int64(1)
	for refused := 0; refused < 64; id++ {
		x := exp1Txns(rng, id, 1)[0]
		if ok, _ := s.Admit(x); ok {
			residents = append(residents, x)
			refused = 0
		} else {
			refused++
		}
	}
	for _, x := range residents {
		s.Request(x)
	}
	return residents, exp1Txns(rng, id, 64)
}

// TestDecisionPathsAllocFree pins LOW's admission (accept and reject), the
// LOW and GOW conflict enumerations, and whole repeated Requests at zero
// allocations on a warmed Exp-1 graph.
func TestDecisionPathsAllocFree(t *testing.T) {
	allocs := func(name string, f func()) {
		t.Helper()
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, a)
		}
	}

	lw := MustNew("LOW", DefaultParams()).(*low)
	res, cands := warmExp1(lw)
	var acc, rej *model.Txn
	for _, c := range cands {
		if lw.admitBlocked(c) {
			rej = c
		} else {
			acc = c
		}
	}
	if acc == nil || rej == nil || len(res) < 8 {
		t.Fatalf("warm LOW graph too small: %d residents, accept %v, reject %v", len(res), acc, rej)
	}
	allocs("LOW Admit (reject)", func() {
		if ok, _ := lw.Admit(rej); ok {
			t.Fatal("rejected candidate admitted")
		}
	})
	allocs("LOW Admit (accept) + Committed", func() {
		if ok, _ := lw.Admit(acc); !ok {
			t.Fatal("accepted candidate refused")
		}
		lw.Committed(acc)
	})
	for _, x := range res {
		st := x.CurrentStep()
		allocs("LOW conflictersOn", func() {
			lw.confs = conflictersOn(lw.confs[:0], lw.graph, x, st.File, st.LockMode)
		})
		allocs("LOW Request", func() { lw.Request(x) })
	}

	gw := MustNew("GOW", DefaultParams()).(*gow)
	res, _ = warmExp1(gw)
	for _, x := range res {
		st := x.CurrentStep()
		allocs("GOW GrantOrientations", func() {
			gw.pairs, _ = gw.graph.GrantOrientations(gw.pairs, x, st.File, st.LockMode)
		})
		allocs("GOW Request", func() { gw.Request(x) })
	}
}
