// Command sweep runs a declarative parameter sweep over the simulator:
// a grid of (scheduler, lambda, NumFiles, DD, sigma, MPL, K, MTBF) cells
// with R seed replications each, executed on a bounded worker pool with
// checkpoint/resume, and aggregated into mean/CI tables.
//
// The grid comes from a paper experiment, a JSON spec file, or flags:
//
//	sweep -exp exp1 -reps 5 -out out/exp1        # replicated Experiment 1
//	sweep -spec my.json -out out/my -progress    # custom spec with progress
//	sweep -schedulers LOW,GOW -lambdas 0.4,0.8,1.2 -reps 3 -out out/ad-hoc
//	sweep -exp exp1 -out out/exp1 -resume        # pick up a killed run
//
// The output directory receives checkpoint.jsonl (streamed as cells
// finish), results.jsonl (canonical order), results.csv and summary.json
// (written atomically at the end); the aggregate table prints to stdout.
// Replication r of each cell runs on an independent RNG substream derived
// from the root seed and the cell's parameter key, so results do not
// depend on worker scheduling or on how many times the sweep was resumed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"batchsched/internal/experiments"
	"batchsched/internal/sweep"
)

func main() {
	var (
		expID     = flag.String("exp", "", "paper experiment grid (exp1, exp2, exp3, exp4)")
		specPath  = flag.String("spec", "", "JSON sweep spec file (see internal/sweep.Spec)")
		outDir    = flag.String("out", "sweep-out", "output directory")
		resume    = flag.Bool("resume", false, "resume from the output directory's checkpoint")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "print live progress (units/sec, ETA, virtual/wall ratio)")
		reps      = flag.Int("reps", 0, "replications per cell (0 = spec's, default 1)")
		seed      = flag.Int64("seed", 0, "root seed (0 = spec's, default 1)")
		duration  = flag.Float64("duration", 0, "simulated seconds per run (0 = spec's, default paper's 2000)")
		haltAfter = flag.Int("halt-after", 0, "stop cleanly after N newly executed units (0 = run all; for resume testing)")

		schedulers = flag.String("schedulers", "", "comma-separated scheduler grid (flag-built specs)")
		lambdas    = flag.String("lambdas", "", "comma-separated arrival-rate grid")
		numFiles   = flag.String("numfiles", "", "comma-separated database-size grid")
		dds        = flag.String("dd", "", "comma-separated declustering-degree grid")
		sigmas     = flag.String("sigmas", "", "comma-separated cost-error sigma grid")
		mpls       = flag.String("mpl", "", "comma-separated C2PL+M admission-limit grid")
		ks         = flag.String("k", "", "comma-separated LOW conflict-bound grid")
		mtbfs      = flag.String("mtbf", "", "comma-separated per-node MTBF grid in seconds")
		load       = flag.String("load", "", "workload (exp1 or exp2; flag-built specs)")

		serveAddr = flag.String("serve", "", "serve sweep telemetry at this address (host:port; :0 picks a port): /metrics, /healthz, /slo, /debug/pprof")
		sloSpec   = flag.String("slo-spec", "", "JSON SLO spec file for the sli.jsonl ledger (empty = built-in default spec)")
	)
	flag.Parse()

	spec, err := buildSpec(specFlags{
		exp: *expID, path: *specPath, load: *load,
		schedulers: *schedulers, lambdas: *lambdas, numFiles: *numFiles,
		dds: *dds, sigmas: *sigmas, mpls: *mpls, ks: *ks, mtbfs: *mtbfs,
	})
	if err != nil {
		fatal(err)
	}
	if *reps > 0 {
		spec.Reps = *reps
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *duration > 0 {
		spec.DurationSeconds = *duration
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := sweep.Options{
		Workers:    *workers,
		Checkpoint: filepath.Join(*outDir, "checkpoint.jsonl"),
		Resume:     *resume,
		HaltAfter:  *haltAfter,
	}
	if *progress {
		opt.OnProgress = printProgress
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "sweep %s: %d cells x %d reps = %d units\n",
		spec.Norm().Name, len(spec.Cells()), spec.Norm().Reps, spec.NumUnits())
	runFn := experiments.RunCell
	if *serveAddr != "" {
		tel := newSweepTelemetry(spec.NumUnits())
		if err := tel.serveOn(*serveAddr); err != nil {
			fatal(err)
		}
		defer tel.close()
		runFn = tel.wrapRun(runFn)
		printed := opt.OnProgress
		opt.OnProgress = func(p sweep.Progress) {
			tel.onProgress(p)
			if printed != nil {
				printed(p)
			}
		}
	}
	res, err := sweep.Run(ctx, spec, runFn, opt)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		// An interrupt is a clean stop: the checkpoint has everything that
		// finished and -resume continues from it.
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "sweep: interrupted with %d/%d units done; rerun with -resume\n",
				len(res.Records), spec.NumUnits())
			os.Exit(130)
		}
		fatal(err)
	}

	if err := writeOutputs(*outDir, res); err != nil {
		fatal(err)
	}
	if !res.Halted {
		if err := writeSLILedger(filepath.Join(*outDir, "sli.jsonl"), *sloSpec,
			res.Spec.Norm().Name, res.Aggregates()); err != nil {
			fatal(err)
		}
	}
	if res.Halted {
		fmt.Fprintf(os.Stderr, "sweep: halted after %d new units (%d/%d done); rerun with -resume\n",
			res.Executed, len(res.Records), spec.NumUnits())
		return
	}
	fmt.Println(sweep.Table(res.Spec, res.Aggregates()).String())
	fmt.Fprintf(os.Stderr, "sweep: %d units (%d resumed) in %s -> %s\n",
		len(res.Records), res.Resumed, time.Since(start).Round(time.Millisecond), *outDir)
}

type specFlags struct {
	exp, path, load                                             string
	schedulers, lambdas, numFiles, dds, sigmas, mpls, ks, mtbfs string
}

// buildSpec resolves the three spec sources in precedence order: -exp
// (paper grids), -spec (JSON file), then flag-built grids. Grid flags also
// override the chosen base spec's dimensions.
func buildSpec(f specFlags) (sweep.Spec, error) {
	var spec sweep.Spec
	switch {
	case f.exp != "" && f.path != "":
		return spec, fmt.Errorf("use -exp or -spec, not both")
	case f.exp != "":
		s, ok := experiments.PaperSpec(f.exp, experiments.Options{})
		if !ok {
			return spec, fmt.Errorf("unknown experiment %q (want exp1..exp4)", f.exp)
		}
		spec = s
	case f.path != "":
		s, err := sweep.LoadSpec(f.path)
		if err != nil {
			return spec, err
		}
		spec = s
	default:
		spec.Name = "ad-hoc"
	}
	if f.load != "" {
		spec.Load = f.load
	}
	var err error
	setStrings(&spec.Schedulers, f.schedulers)
	setFloats(&spec.Lambdas, f.lambdas, &err)
	setInts(&spec.NumFiles, f.numFiles, &err)
	setInts(&spec.DDs, f.dds, &err)
	setFloats(&spec.Sigmas, f.sigmas, &err)
	setInts(&spec.MPLs, f.mpls, &err)
	setInts(&spec.Ks, f.ks, &err)
	setFloats(&spec.MTBFSeconds, f.mtbfs, &err)
	return spec, err
}

func setStrings(dst *[]string, csv string) {
	if csv == "" {
		return
	}
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	*dst = out
}

func setFloats(dst *[]float64, csv string, err *error) {
	if csv == "" || *err != nil {
		return
	}
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, e := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if e != nil {
			*err = fmt.Errorf("bad number %q in %q", s, csv)
			return
		}
		out = append(out, v)
	}
	*dst = out
}

func setInts(dst *[]int, csv string, err *error) {
	if csv == "" || *err != nil {
		return
	}
	var out []int
	for _, s := range strings.Split(csv, ",") {
		v, e := strconv.Atoi(strings.TrimSpace(s))
		if e != nil {
			*err = fmt.Errorf("bad integer %q in %q", s, csv)
			return
		}
		out = append(out, v)
	}
	*dst = out
}

// writeOutputs renders the canonical artifacts: results.jsonl, results.csv
// and summary.json, each written atomically.
func writeOutputs(dir string, res *sweep.Result) error {
	if err := sweep.WriteJSONL(filepath.Join(dir, "results.jsonl"), res.Records); err != nil {
		return err
	}
	aggs := res.Aggregates()
	f, err := os.CreateTemp(dir, "results-*.csv")
	if err != nil {
		return err
	}
	if err := sweep.WriteCSV(f, aggs); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), filepath.Join(dir, "results.csv")); err != nil {
		os.Remove(f.Name())
		return err
	}
	return sweep.WriteSummary(filepath.Join(dir, "summary.json"), res.Spec, aggs)
}

func printProgress(p sweep.Progress) {
	eta := time.Duration(p.ETASeconds * float64(time.Second)).Round(time.Second)
	fmt.Fprintf(os.Stderr, "\r%d/%d units (%d resumed)  %.2f units/s  ETA %s  virtual/wall %.0fx   ",
		p.Done, p.Total, p.Resumed, p.UnitsPerSec, eta, p.VirtualPerWall)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(2)
}
