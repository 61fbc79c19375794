// Command paperbench regenerates the tables and figures of Ohmori et al.
// (ICDE 1991) from the simulator, printing side-by-side comparisons with
// the paper's numbers where the paper prints them.
//
// Examples:
//
//	paperbench -exp table2            # one artifact at full scale
//	paperbench -exp all               # everything (tens of minutes)
//	paperbench -exp fig10 -quick      # scaled-down smoke run (~seconds)
//	paperbench -exp table3 -reps 3    # average 3 seeds per point
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"batchsched"
	"batchsched/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "artifact id ("+strings.Join(batchsched.ArtifactIDs(), ", ")+") or 'all'")
		ablations = flag.Bool("ablations", false, "run the design-choice ablation studies instead of the paper artifacts")
		chart     = flag.Bool("chart", false, "also render figure artifacts as ASCII charts")
		quick     = flag.Bool("quick", false, "scaled-down run: 200s windows, coarse solver")
		duration  = flag.Float64("duration", 0, "override simulated seconds per run (0 = paper's 2000)")
		reps      = flag.Int("reps", 1, "replications per point")
		seed      = flag.Int64("seed", 1, "base random seed")
		tol       = flag.Float64("tol", 0, "bisection tolerance on lambda (0 = 0.01)")
	)
	flag.Parse()

	o := batchsched.Options{Reps: *reps, Seed: *seed, SolverTol: *tol}
	if *duration > 0 {
		o.Duration = batchsched.Time(*duration * float64(batchsched.Second))
	}
	if *quick {
		if o.Duration == 0 {
			o.Duration = 200 * batchsched.Second
		}
		if o.SolverTol == 0 {
			o.SolverTol = 0.05
		}
	}

	if *ablations {
		for _, a := range experiments.Ablations {
			start := time.Now()
			fmt.Fprintf(os.Stderr, "== running %s: %s\n", a.ID, a.Title)
			fmt.Println(a.Run(o).String())
			fmt.Fprintf(os.Stderr, "   (%s in %s)\n\n", a.ID, time.Since(start).Round(time.Millisecond))
		}
		return
	}

	ids := batchsched.ArtifactIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		a, ok := experiments.FindArtifact(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown artifact %q (want one of %v or 'all')\n",
				id, batchsched.ArtifactIDs())
			os.Exit(2)
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== regenerating %s: %s\n", a.ID, a.Title)
		tbl := a.Run(o)
		fmt.Println(tbl.String())
		if *chart && strings.HasPrefix(a.ID, "fig") {
			if c := tbl.Chart(tbl.Header[0], "", 0); c != nil {
				c.Width, c.Height = 72, 22
				fmt.Println(c.String())
			}
		}
		fmt.Fprintf(os.Stderr, "   (%s in %s)\n\n", a.ID, time.Since(start).Round(time.Millisecond))
	}
}
