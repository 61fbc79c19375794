package experiments

import (
	"context"
	"fmt"

	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/report"
	"batchsched/internal/sim"
	"batchsched/internal/sweep"
)

// Options scales an artifact regeneration. The zero value reproduces the
// paper's full setting.
type Options struct {
	// Duration per simulation (0 = the paper's 2,000,000 ms).
	Duration sim.Time
	// Reps per point (0 = 1).
	Reps int
	// Seed for the first replication (0 = 1).
	Seed int64
	// SolverTol is the bisection tolerance on lambda (0 = 0.01 TPS).
	SolverTol float64
}

func (o Options) norm() Options {
	if o.Reps == 0 {
		o.Reps = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SolverTol == 0 {
		o.SolverTol = 0.01
	}
	return o
}

func (o Options) point() Point {
	return Point{NumFiles: 16, DD: 1, Load: Exp1, Seed: o.Seed, Reps: o.Reps,
		Duration: o.Duration}
}

// sixSchedulers is the paper's scheduler lineup with plain C2PL.
var sixSchedulers = []string{"NODC", "ASL", "GOW", "LOW", "C2PL", "OPT"}

// mSchedulers swaps C2PL for the best C2PL+M (Table 3 / Fig. 10).
var mSchedulers = []string{"NODC", "ASL", "GOW", "LOW", "C2PL+M", "OPT"}

// Artifact is a regenerable table or figure.
type Artifact struct {
	// ID is the key used by cmd/paperbench (e.g. "fig8").
	ID string
	// Title describes the artifact.
	Title string
	// Run regenerates it.
	Run func(Options) *report.Table
}

// Artifacts lists every table and figure of the paper's evaluation, in
// paper order.
var Artifacts = []Artifact{
	{"fig8", "Fig. 8: arrival rate vs response time (Exp.1, DD=1, NumFiles=16)", Fig8},
	{"table2", "Table 2: NumFiles vs throughput at RT=70s (Exp.1, DD=1)", Table2},
	{"fig9", "Fig. 9: declustering vs throughput at RT=70s (Exp.1, NumFiles=16)", Fig9},
	{"table3", "Table 3: declustering vs response time at 1.2 TPS (Exp.1)", Table3},
	{"fig10", "Fig. 10: declustering vs response-time speedup at 1.2 TPS (Exp.1)", Fig10},
	{"fig11", "Fig. 11: arrival rate vs response-time speedup (Exp.1, DD=4)", Fig11},
	{"table4", "Table 4: Exp.2 throughput at RT=70s and response time at 1.2 TPS", Table4},
	{"fig12", "Fig. 12: Exp.2 declustering vs response-time speedup at 1.2 TPS", Fig12},
	{"fig13", "Fig. 13: error ratio vs throughput at RT=70s (Exp.3)", Fig13},
	{"table5", "Table 5: sensitivity degradation ratio TPS(σ=10)/TPS(σ=0) (Exp.3)", Table5},
	{"exp4", "Exp. 4: node MTBF vs response time and restart rate under faults (extension)", Exp4},
	{"phases", "Phase breakdown: where transaction time goes per scheduler (Exp.1, DD=1, λ=0.6; observability extension)", Phases},
}

// FindArtifact looks an artifact up by ID.
func FindArtifact(id string) (Artifact, bool) {
	for _, a := range Artifacts {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}

// Fig8 regenerates the response-time-versus-arrival-rate curves from the
// Exp.1 sweep spec (cells expand λ-major, scheduler fastest — the table's
// row/column order).
func Fig8(o Options) *report.Table {
	o = o.norm()
	lambdas := fig8Lambdas
	sums := runCells(o, Exp1Spec(o).Cells())
	t := &report.Table{
		Title:  "Fig. 8 — Exp.1: Arrival Rate vs. Mean Response Time (s). DD=1, NumFiles=16.",
		Note:   "Paper reference points: RT=70s is crossed at about 1.04 (NODC), 0.72 (ASL), 0.67 (GOW), 0.65 (LOW), 0.35 (C2PL), 0.24 (OPT) TPS.",
		Header: append([]string{"λ(TPS)"}, sixSchedulers...),
	}
	i := 0
	for _, l := range lambdas {
		row := []string{report.F(l, 2)}
		for range sixSchedulers {
			row = append(row, report.F(sums[i].MeanRT.Seconds(), 1))
			i++
		}
		t.AddRow(row...)
	}
	return t
}

// rt70TPS solves the RT=70s operating point (replicating each probe p.Reps
// times) and returns the throughput measured there.
func rt70TPS(p Point, tol float64) float64 {
	lambda := SolveLambdaAtRT(p, 0, TargetRT, 0.02, 1.4, tol)
	p.Lambda = lambda
	return Run(p).TPS
}

// Table2 regenerates NumFiles versus throughput at RT=70s.
func Table2(o Options) *report.Table {
	o = o.norm()
	t := &report.Table{
		Title:  "Table 2 — Exp.1: Number of Files vs. Throughput (TPS) at Resp.Time=70s, DD=1.",
		Note:   "Cells: measured (paper).",
		Header: append([]string{"#files"}, sixSchedulers...),
	}
	for _, nf := range []int{8, 16, 32, 64} {
		row := []string{fmt.Sprint(nf)}
		results := make([]float64, len(sixSchedulers))
		parallelEach(len(sixSchedulers), func(i int) {
			p := o.point()
			p.Scheduler = sixSchedulers[i]
			p.NumFiles = nf
			results[i] = rt70TPS(p, o.SolverTol)
		})
		for i, s := range sixSchedulers {
			row = append(row, fmt.Sprintf("%s (%s)", report.F(results[i], 2), report.F(PaperTable2[nf][s], 2)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9 regenerates declustering versus throughput at RT=70s.
func Fig9(o Options) *report.Table {
	o = o.norm()
	t := &report.Table{
		Title:  "Fig. 9 — Exp.1: Declustering vs. Throughput (TPS) at Resp.Time=70s, NumFiles=16.",
		Note:   "Paper reference (read off the figure/text): at DD=2 ASL/GOW/LOW reach ~0.9 (≈85% of NODC); C2PL reaches 0.85 only at DD=4.",
		Header: append([]string{"DD"}, sixSchedulers...),
	}
	for _, dd := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(dd)}
		results := make([]float64, len(sixSchedulers))
		parallelEach(len(sixSchedulers), func(i int) {
			p := o.point()
			p.Scheduler = sixSchedulers[i]
			p.DD = dd
			results[i] = rt70TPS(p, o.SolverTol)
		})
		for i := range sixSchedulers {
			row = append(row, report.F(results[i], 2))
		}
		t.AddRow(row...)
	}
	return t
}

// table3Data runs the λ=1.2 declustering sweep shared by Table3 and Fig10.
// It returns meanRT[dd][scheduler] in seconds (C2PL+M at its best mpl).
func table3Data(o Options, dds []int) map[int]map[string]float64 {
	o = o.norm()
	out := make(map[int]map[string]float64)
	for _, dd := range dds {
		out[dd] = make(map[string]float64)
		results := make([]float64, len(mSchedulers))
		parallelEach(len(mSchedulers), func(i int) {
			p := o.point()
			p.Scheduler = mSchedulers[i]
			p.Lambda = 1.2
			p.DD = dd
			var sum metrics.Summary
			if mSchedulers[i] == "C2PL+M" {
				sum, _ = BestC2PLM(p)
			} else {
				sum = Run(p)
			}
			results[i] = sum.MeanRT.Seconds()
		})
		for i, s := range mSchedulers {
			out[dd][s] = results[i]
		}
	}
	return out
}

// Table3 regenerates declustering versus response time at λ = 1.2 TPS.
func Table3(o Options) *report.Table {
	data := table3Data(o, []int{1, 2, 4, 8})
	t := &report.Table{
		Title:  "Table 3 — Exp.1: Declustering vs. Resp.Time (s). NumFiles=16, λ=1.2 TPS.",
		Note:   "Cells: measured (paper). C2PL+M is the best admission limit from " + fmt.Sprint(MPLSweep) + ".",
		Header: append([]string{"DD"}, mSchedulers...),
	}
	for _, dd := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(dd)}
		for _, s := range mSchedulers {
			row = append(row, fmt.Sprintf("%s (%s)", report.F(data[dd][s], 0), report.F(PaperTable3[dd][s], 0)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig10 regenerates declustering versus response-time speedup at 1.2 TPS:
// speedup(DD) = RT(DD=1)/RT(DD).
func Fig10(o Options) *report.Table {
	data := table3Data(o, []int{1, 2, 4, 8})
	t := &report.Table{
		Title:  "Fig. 10 — Exp.1: Declustering vs. Resp.Time Speedup. NumFiles=16, λ=1.2 TPS.",
		Note:   "Paper: ASL/LOW/GOW near-linear (≈8-9 at DD=8; C2PL+M spikes to 13.4 at DD=8); NODC ≈2.4, OPT ≈1.6 at DD=8.",
		Header: append([]string{"DD"}, mSchedulers...),
	}
	for _, dd := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(dd)}
		for _, s := range mSchedulers {
			row = append(row, report.F(data[1][s]/data[dd][s], 2))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11 regenerates arrival rate versus response-time speedup at DD=4:
// speedup(λ) = RT(DD=1, λ)/RT(DD=4, λ). The grid is the Exp.1 spec with
// Fig. 11's arrival rates over DD ∈ {1, 4} (cells expand DD-major, then λ,
// scheduler fastest).
func Fig11(o Options) *report.Table {
	o = o.norm()
	lambdas := fig11Lambdas
	spec := Exp1Spec(o)
	spec.Lambdas = fig11Lambdas
	spec.DDs = []int{1, 4}
	sums := runCells(o, spec.Cells())
	rt := func(ddIdx, li, si int) float64 {
		return sums[ddIdx*len(lambdas)*len(sixSchedulers)+li*len(sixSchedulers)+si].MeanRT.Seconds()
	}
	t := &report.Table{
		Title:  "Fig. 11 — Exp.1: Arrival Rate vs. Resp.Time Speedup (RT at DD=1 over RT at DD=4). NumFiles=16.",
		Note:   "Paper: in the heavy-load region (λ ≥ ~0.85, C2PL's DD=4 throughput) ASL/GOW/LOW hold speedup ~4-5 while C2PL and OPT fall off.",
		Header: append([]string{"λ(TPS)"}, sixSchedulers...),
	}
	for li, l := range lambdas {
		row := []string{report.F(l, 2)}
		for si := range sixSchedulers {
			row = append(row, report.F(rt(0, li, si)/rt(1, li, si), 2))
		}
		t.AddRow(row...)
	}
	return t
}

// table4Data runs Exp.2 at λ=1.2 for the RT half of Table 4 and Fig. 12,
// from the Exp.2 sweep spec (cells expand DD-major, scheduler fastest).
func table4Data(o Options, dds []int) map[int]map[string]float64 {
	o = o.norm()
	sums := runCells(o, exp2Spec(o, dds).Cells())
	out := make(map[int]map[string]float64)
	i := 0
	for _, dd := range dds {
		out[dd] = make(map[string]float64)
		for _, s := range sixSchedulers {
			out[dd][s] = sums[i].MeanRT.Seconds()
			i++
		}
	}
	return out
}

// Table4 regenerates the Exp.2 throughput (RT=70s) and response-time
// (λ=1.2) table.
func Table4(o Options) *report.Table {
	o = o.norm()
	rts := table4Data(o, []int{1, 2, 4})
	t := &report.Table{
		Title:  "Table 4 — Exp.2: Throughput (TPS at RT=70s) and Resp.Time (s at λ=1.2) at DD=1,2,4.",
		Note:   "Cells: measured (paper).",
		Header: append([]string{"metric", "DD"}, sixSchedulers...),
	}
	for _, dd := range []int{1, 2, 4} {
		row := []string{"Thruput", fmt.Sprint(dd)}
		results := make([]float64, len(sixSchedulers))
		parallelEach(len(sixSchedulers), func(i int) {
			p := o.point()
			p.Scheduler = sixSchedulers[i]
			p.Load = Exp2
			p.DD = dd
			results[i] = rt70TPS(p, o.SolverTol)
		})
		for i, s := range sixSchedulers {
			row = append(row, fmt.Sprintf("%s (%s)", report.F(results[i], 2), report.F(PaperTable4Thru[dd][s], 2)))
		}
		t.AddRow(row...)
	}
	for _, dd := range []int{1, 2, 4} {
		row := []string{"RespTime", fmt.Sprint(dd)}
		for _, s := range sixSchedulers {
			row = append(row, fmt.Sprintf("%s (%s)", report.F(rts[dd][s], 0), report.F(PaperTable4RT[dd][s], 0)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig12 regenerates the Exp.2 declustering-versus-speedup curves at 1.2 TPS.
func Fig12(o Options) *report.Table {
	data := table4Data(o, []int{1, 2, 4, 8})
	t := &report.Table{
		Title:  "Fig. 12 — Exp.2: Declustering vs. Resp.Time Speedup at λ=1.2 TPS.",
		Note:   "Paper: LOW best (best throughput AND best speedup); ASL speedup beats C2PL despite worse absolute RT; NODC speedup only 1.57 at DD=8.",
		Header: append([]string{"DD"}, sixSchedulers...),
	}
	for _, dd := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprint(dd)}
		for _, s := range sixSchedulers {
			row = append(row, report.F(data[1][s]/data[dd][s], 2))
		}
		t.AddRow(row...)
	}
	return t
}

// fig13Data solves the RT=70s throughput for GOW and LOW over the error
// grid of the Exp.3 sweep spec (cells expand DD-major, then σ, scheduler
// fastest); used by Fig13 and Table5. Each cell re-solves the operating
// point, so the arrival rate the spec carries is only a placeholder.
func fig13Data(o Options, sigmas []float64, dds []int) map[int]map[float64]map[string]float64 {
	o = o.norm()
	cells := exp3Spec(o, sigmas, dds).Cells()
	results := make([]float64, len(cells))
	parallelEach(len(cells), func(i int) {
		p := artifactPoint(o, cells[i])
		p.Lambda = 0
		results[i] = rt70TPS(p, o.SolverTol)
	})
	out := make(map[int]map[float64]map[string]float64)
	for i, c := range cells {
		if out[c.DD] == nil {
			out[c.DD] = make(map[float64]map[string]float64)
		}
		if out[c.DD][c.Sigma] == nil {
			out[c.DD][c.Sigma] = make(map[string]float64)
		}
		out[c.DD][c.Sigma][c.Scheduler] = results[i]
	}
	return out
}

// Fig13 regenerates the sensitivity curves: throughput at RT=70s as a
// function of the declared-cost error ratio σ.
func Fig13(o Options) *report.Table {
	sigmas := []float64{0, 0.5, 1, 2, 5, 10}
	dds := []int{1, 2, 4}
	data := fig13Data(o, sigmas, dds)
	t := &report.Table{
		Title:  "Fig. 13 — Exp.3: Error Ratio σ vs. Throughput (TPS at RT=70s). NumFiles=16.",
		Note:   "Paper: GOW nearly flat; LOW degrades at DD=1 and recovers with DD; C2PL's Fig. 9 values (0.36/0.6/0.85 at DD=1/2/4 here) are the floor.",
		Header: []string{"DD", "σ", "GOW", "LOW"},
	}
	for _, dd := range dds {
		for _, s := range sigmas {
			t.AddRow(fmt.Sprint(dd), report.F(s, 1),
				report.F(data[dd][s]["GOW"], 2), report.F(data[dd][s]["LOW"], 2))
		}
	}
	return t
}

// Table5 regenerates the degradation ratios TPS(σ=10)/TPS(σ=0).
func Table5(o Options) *report.Table {
	dds := []int{1, 2, 4}
	data := fig13Data(o, []float64{0, 10}, dds)
	t := &report.Table{
		Title:  "Table 5 — Exp.3: Sensitivity degradation ratio = TPS(σ=10)/TPS(σ=0), percent.",
		Note:   "Cells: measured (paper).",
		Header: []string{"scheduler", "DD=1", "DD=2", "DD=4"},
	}
	for _, s := range []string{"GOW", "LOW"} {
		row := []string{s}
		for _, dd := range dds {
			ratio := 100 * data[dd][10][s] / data[dd][0][s]
			row = append(row, fmt.Sprintf("%s%% (%s%%)", report.F(ratio, 1), report.F(PaperTable5[dd][s], 1)))
		}
		t.AddRow(row...)
	}
	return t
}

// phaseNames are the lifecycle phases of the breakdown table, in lifecycle
// order ("txn" is the whole in-system residence).
var phaseNames = []string{"txn", "admit-wait", "lock-wait", "execute", "commit"}

// Phases regenerates the per-phase virtual-time decomposition at the Fig.-8
// operating point λ=0.6 TPS: for each scheduler, the total virtual time
// transactions spent waiting for admission, waiting for locks, executing
// cohorts, and committing — the explanation behind the response-time
// ordering (an observability-layer extension; the paper reports only the
// aggregate response times).
func Phases(o Options) *report.Table {
	o = o.norm()
	type res struct {
		totals      map[string]obs.PhaseTotal
		completions int
	}
	results := make([]res, len(sixSchedulers))
	parallelEach(len(sixSchedulers), func(i int) {
		p := o.point()
		p.Scheduler = sixSchedulers[i]
		p.Lambda = 0.6
		ob := obs.New()
		ob.SetSampleInterval(0) // the table consumes spans only
		sum := RunObserved(p, ob)
		totals := make(map[string]obs.PhaseTotal)
		for _, pt := range ob.PhaseTotals("txn") {
			totals[pt.Name] = pt
		}
		results[i] = res{totals, sum.Completions}
	})
	t := &report.Table{
		Title: "Phase breakdown — Exp.1: total virtual time per lifecycle phase (s). DD=1, NumFiles=16, λ=0.6 TPS.",
		Note: "\"txn\" is total in-system residence; \"/txn\" columns divide by completions. " +
			"Expected ordering: lock-wait C2PL > GOW/LOW ≈ ASL > NODC (=0); OPT trades waits for restarts.",
		Header: append(append([]string{"scheduler"}, phaseNames...), "lock-wait/txn(s)", "completions"),
	}
	for i, s := range sixSchedulers {
		row := []string{s}
		for _, ph := range phaseNames {
			row = append(row, report.F(results[i].totals[ph].Total.Seconds(), 1))
		}
		perTxn := 0.0
		if n := results[i].completions; n > 0 {
			perTxn = results[i].totals["lock-wait"].Total.Seconds() / float64(n)
		}
		row = append(row, report.F(perTxn, 2), fmt.Sprint(results[i].completions))
		t.AddRow(row...)
	}
	return t
}

// parallelEach runs fn(i) for i in [0, n) on the shared sweep worker pool,
// re-raising any captured panic once the other tasks finish.
func parallelEach(n int, fn func(i int)) {
	if err := sweep.ForEach(context.Background(), 0, n, func(i int) error {
		fn(i)
		return nil
	}); err != nil {
		panic(err)
	}
}
