package wtpg

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"batchsched/internal/model"
	"batchsched/internal/pool"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// benchChain builds an n-node chain graph with random weights.
func benchChain(n int, seed int64) (*Graph, []*model.Txn) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(1 + rng.Intn(9))
		y[i] = float64(1 + rng.Intn(9))
	}
	txns := chainTxns(x, y)
	g := New()
	for _, tx := range txns {
		g.Add(tx)
	}
	return g, txns
}

// BenchmarkOptimalChainOrientation measures GOW's Phase-2 optimization on a
// 32-node chain (far larger than typical simulation state).
func BenchmarkOptimalChainOrientation(b *testing.B) {
	g, _ := benchChain(32, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.OptimalChainOrientation(RemainingDemand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrientAll measures one full Phase-2 planning pass — the optimal
// chain orientation over every component of a many-chain WTPG (the
// per-decision cost GOW pays on each contended lock request, DESIGN.md §17).
// Set BENCH_DECISION_WORKERS=N to solve components on an N-worker pool
// (OptimalChainOrientationParallelInto); the plan is byte-identical either
// way, so the pre/post ratio in BENCH_core.json is a pure wall-clock
// comparison of the sequential and fanned-out solvers.
func BenchmarkOrientAll(b *testing.B) {
	workers, _ := strconv.Atoi(os.Getenv("BENCH_DECISION_WORKERS"))
	r := rand.New(rand.NewSource(1))
	g := New()
	buildChainGraph(r, g, 64, 8)
	var plan Plan
	var lane *pool.Lane
	if workers > 1 {
		p := pool.New("bench", workers)
		defer p.Stop()
		lane = p.Lane("decision")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if lane != nil {
			err = g.OptimalChainOrientationParallelInto(RemainingDemand, &plan, lane, workers)
		} else {
			err = g.OptimalChainOrientationInto(RemainingDemand, &plan)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlayEvaluate measures LOW's parallel-path E(q) — one overlay
// evaluation against a frozen base — next to BenchmarkEvaluate's exclusive
// apply/undo equivalent.
func BenchmarkOverlayEvaluate(b *testing.B) {
	g, txns := benchChain(32, 7)
	t := txns[10]
	f := t.Steps[0].File
	var base EvalBase
	if err := g.BuildEvalBase(RemainingDemand, &base); err != nil {
		b.Fatal(err)
	}
	var ov Overlay
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov.Evaluate(&base, t, f, model.X)
	}
}

// BenchmarkEvaluate measures LOW's E(q) (clone + grant + critical path) on
// a 32-node chain.
func BenchmarkEvaluate(b *testing.B) {
	g, txns := benchChain(32, 7)
	t := txns[10]
	f := t.Steps[0].File
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(g, t, f, model.X, RemainingDemand)
	}
}

// BenchmarkChainFormAfterAdd measures GOW's Phase-0 admission test, the
// hottest scheduler call at saturation, on an Exp-1-sized graph: Experiment-1
// transactions (Pattern1 over 16 files) admitted while the graph stays in
// chain form, until 64 draws in a row are refused. Each iteration tests the
// next of 64 fresh candidates.
func BenchmarkChainFormAfterAdd(b *testing.B) {
	rng := sim.NewRNG(1)
	gen := workload.NewExp1(16)
	g := New()
	id := int64(1)
	for refused := 0; refused < 64; id++ {
		t := model.NewTxn(id, 0, gen.Steps(rng))
		if g.ChainFormAfterAdd(t) {
			g.Add(t)
			refused = 0
		} else {
			refused++
		}
	}
	probes := make([]*model.Txn, 64)
	for i := range probes {
		probes[i] = model.NewTxn(id+int64(i), 0, gen.Steps(rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ChainFormAfterAdd(probes[i%len(probes)])
	}
}

// BenchmarkGrant measures orientation plus closure after a grant.
func BenchmarkGrant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, txns := benchChain(24, int64(i))
		t := txns[11]
		b.StartTimer()
		if err := g.Grant(t, t.Steps[0].File, model.X); err != nil {
			b.Fatal(err)
		}
	}
}
