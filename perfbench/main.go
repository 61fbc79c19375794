// Command perfbench is the repository benchmark. One invocation runs one
// workload (see README.md for why each exists):
//
//	perfbench --workload sim-contended --seed 3 --seconds 25 --trace 0
//
// It sets the workload up several times (the median is setup_s), reruns the
// first job with every layer wrapped in timers and requires the same
// summary (the self-check), repeats the job list for the time budget with
// tracing off (the end-to-end metrics), reruns a prefix of it with the
// program's own observability attached (obs_overhead) and with history
// recording (the serializability check). With --trace 1, in place of the
// repeated job list, it runs every job once with timers around each call
// into the scheduler, the generator and the backends, beside one untimed
// run of the same job; it prints the per-layer metrics and writes the spans
// of the first round to a JSONL file under --out.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. A failed check makes the command exit 1.
package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"batchsched/internal/engine"
	"batchsched/internal/engine/live"
	"batchsched/internal/history"
	"batchsched/internal/machine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

const (
	// setups is how many times a run sets itself up; setup_s is the median.
	setups = 15
	// maxSpans bounds the span file of a traced run.
	maxSpans = 100_000
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "benchmark seed; every input is drawn from it")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead of end-to-end ones")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := newWorkload(*name); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{name: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := b.execute()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		if err := b.writeSpans(*outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := b.report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, p := range b.chk.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks collects the outcome of every output check of an invocation.
type checks struct {
	attempted, failed int
	problems          []string
	digests           map[int]string // job index -> summary digest of its first run
}

func (c *checks) fail(j job, ops int, format string, args ...any) {
	c.failed += ops
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf("job %d (%s, round %d): %s", j.idx, j.point.sched, j.round, fmt.Sprintf(format, args...)))
	}
}

// bench is one invocation.
type bench struct {
	name   string
	seed   int64
	budget time.Duration
	traced bool

	chk   checks
	r     *runner
	tr    *tracer
	info  []string     // human-readable lines printed before the metrics
	setup [][2]float64 // each set-up's seconds: as measured, and scaled

	// The host's speed (hostref.go): the meter, and the slowdowns it read
	// during the set-ups and during each repetition of the timed pass.
	hm        *hostMeter
	setupSlow float64
	passSlow  []float64

	// Pass outcomes, one per job.
	reps     int       // repetitions of the job list in the timed pass
	best     []outcome // the timed pass: each job's median repetition
	bare     []outcome // the aux prefix, tracing off, paired with observed
	observed []outcome // the aux prefix with obs attached
	untraced []outcome // the job list, tracing off, paired with tracedO
	tracedO  []outcome // the job list, traced
}

func (b *bench) execute() (result, error) {
	b.chk.digests = map[int]string{}
	if b.traced {
		b.tr = newTracer(maxSpans)
	}
	b.hm = newHostMeter()
	// Set-up, several times; the last runner is used. In a traced
	// invocation the first set-up draws through the timed generator. The
	// host's speed is sampled three times before each, and each set-up is
	// scaled by the median of its own three samples.
	for i := 0; i < setups; i++ {
		var tr *tracer
		if i == 0 {
			tr = b.tr
		}
		mark := len(b.hm.samples)
		for range 3 {
			b.hm.sample()
		}
		start := time.Now()
		r, err := newRunner(b.name, b.seed, tr, &b.chk)
		if err != nil {
			return result{}, err
		}
		el := time.Since(start).Seconds()
		b.setup = append(b.setup, [2]float64{el, el / b.hm.factor(mark)})
		b.r = r
	}
	b.setupSlow = b.hm.factor(0)
	r := b.r

	// Self-check: the first job runs with every layer wrapped, and every
	// later bare run of it must reproduce that summary.
	r.runJob(r.jobs[0], runOpts{tr: newTracer(0)})

	aux := r.jobs[:r.w.auxRounds*len(r.w.points)]
	if b.traced {
		// One traced run per job, each beside an untraced one: exact layer
		// counts for the job list, and an overhead ratio free of host drift.
		b.untraced, b.tracedO = r.pairedPass(r.jobs, runOpts{}, runOpts{tr: b.tr}, 1)
	} else {
		start := time.Now()
		var reps [][]outcome
		for {
			rep, slow := r.timedPass(r.jobs, b.hm)
			reps = append(reps, rep)
			b.passSlow = append(b.passSlow, slow)
			el := time.Since(start)
			if el+el/time.Duration(len(reps)) > b.budget*3/4 {
				break
			}
		}
		b.reps = len(reps)
		b.best = medianRep(reps)
	}
	b.bare, b.observed = r.pairedPass(aux, runOpts{}, runOpts{obs: true}, 3)
	r.pass(aux, runOpts{check: true})
	if b.hm.err != nil {
		return result{}, b.hm.err
	}

	res := result{
		Correct:   b.chk.failed == 0,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
	}
	var err error
	if b.traced {
		res.Metrics = b.layerMetrics()
	} else {
		res.Metrics, err = b.endToEnd()
	}
	return res, err
}

// runner runs the jobs of one workload.
type runner struct {
	w       *workloadDef
	jobs    []job
	batches [][][]model.Step // live: one pre-drawn closed batch per round
	chk     *checks
}

// newRunner is the set-up: workload definition, job list, pre-drawn live
// batches, and one untimed warm-up job (warmJob).
func newRunner(name string, seed int64, tr *tracer, chk *checks) (*runner, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, jobs: w.jobs(seed), chk: chk}
	gen := w.gen
	if tr != nil {
		gen = timedGen{inner: gen, tr: tr}
	}
	r.batches = w.drawBatches(seed, gen)
	if tr != nil {
		tr.children = tr.children[:0] // set-up draws belong to no run
	}
	r.runJob(w.warmJob(), runOpts{})
	return r, nil
}

// runOpts selects what a pass attaches to each job.
type runOpts struct {
	tr    *tracer // time every layer call (nil: tracing off)
	obs   bool    // attach the program's observability layer (obs.New)
	check bool    // record the history and check it is conflict-serializable
}

// outcome is what one job measured. In the timed pass, host times (and
// the live backend's wall clock) are scaled to the reference host.
type outcome struct {
	rawHost time.Duration // host as measured
	host    time.Duration // sim: machine.New + Run; live: Run
	newDur  time.Duration // live: live.New
	clock   time.Duration // backend clock advanced: the simulated span, or the live makespan
	commits int
	events  uint64
	rts     []float64 // per commit: response time on the backend's clock, ms
	sum     metrics.Summary
	viol    int
	run     time.Duration // traced: the Run span
	self    time.Duration // traced: the Run span minus its children
	sched   time.Duration // traced: the scheduler calls inside the Run span
}

// timedPass runs jobs, each right after a sample of the host's speed, and
// scales the outcomes to the reference host by the median slowdown the
// samples read, which it returns.
func (r *runner) timedPass(jobs []job, hm *hostMeter) ([]outcome, float64) {
	out := make([]outcome, len(jobs))
	mark := len(hm.samples)
	runtime.GC()
	for i, j := range jobs {
		hm.sample()
		out[i] = r.runJob(j, runOpts{})
	}
	slow := hm.factor(mark)
	for i := range out {
		out[i] = out[i].scaled(slow, r.w.live)
	}
	return out, slow
}

// scaled divides o's host times by the host's slowdown; on the live backend
// its clock is the wall clock, so the makespan and response times too.
func (o outcome) scaled(slow float64, live bool) outcome {
	div := func(d time.Duration) time.Duration { return time.Duration(float64(d) / slow) }
	o.host, o.newDur = div(o.host), div(o.newDur)
	if live {
		o.clock = div(o.clock)
		rts := make([]float64, len(o.rts))
		for i, rt := range o.rts {
			rts[i] = rt / slow
		}
		o.rts = rts
	}
	return o
}

func (r *runner) pass(jobs []job, o runOpts) []outcome {
	out := make([]outcome, len(jobs))
	runtime.GC()
	for i, j := range jobs {
		out[i] = r.runJob(j, o)
	}
	return out
}

// pairedPass runs every job under base and under alt back to back, pairs
// times, alternating which side goes first, and keeps each side's median
// run: the two sides of a pair run at the same host speed, so their ratio
// is steady on a host whose speed drifts.
func (r *runner) pairedPass(jobs []job, base, alt runOpts, pairs int) (bases, alts []outcome) {
	runtime.GC()
	ra := make([][]outcome, pairs)
	rb := make([][]outcome, pairs)
	for p := range ra {
		ra[p] = make([]outcome, len(jobs))
		rb[p] = make([]outcome, len(jobs))
	}
	for i, j := range jobs {
		if alt.tr != nil {
			alt.tr.keep = j.round == 0 // full spans for the first round only
		}
		for p := 0; p < pairs; p++ {
			if (i+p)%2 == 0 {
				ra[p][i] = r.runJob(j, base)
				rb[p][i] = r.runJob(j, alt)
			} else {
				rb[p][i] = r.runJob(j, alt)
				ra[p][i] = r.runJob(j, base)
			}
		}
	}
	if alt.tr != nil {
		alt.tr.keep = false
	}
	return medianRep(ra), medianRep(rb)
}

// medianRep keeps, for each job, the repetition with the median host time
// (the lower one of an even count): the host's typical speed during the
// pass, which neither a burst of contention nor a burst of idle neighbours
// moves.
func medianRep(reps [][]outcome) []outcome {
	out := make([]outcome, len(reps[0]))
	col := make([]outcome, len(reps))
	for i := range out {
		for k, rep := range reps {
			col[k] = rep[i]
		}
		slices.SortFunc(col, func(a, b outcome) int { return cmp.Compare(a.host, b.host) })
		out[i] = col[(len(col)-1)/2]
	}
	return out
}

func (r *runner) runJob(j job, o runOpts) outcome {
	if r.w.live {
		return r.liveJob(j, o)
	}
	return r.simJob(j, o)
}

func (r *runner) tags(j job) spanRecord {
	return spanRecord{Run: j.idx, Workload: r.w.name, Sched: j.point.sched, Seed: j.seed}
}

func (r *runner) simJob(j job, o runOpts) (out outcome) {
	r.chk.attempted++
	cfg := r.w.cfg
	cfg.ArrivalRate = j.point.rate
	s, err := sched.New(j.point.sched, sched.DefaultParams())
	if err != nil {
		r.chk.fail(j, 1, "%v", err)
		return out
	}
	clk := &commitClock{}
	var gen engine.Generator = r.w.gen
	if o.tr != nil {
		s = o.tr.wrapSched(s)
		gen = timedGen{inner: gen, tr: o.tr}
	}
	var rec *history.Recorder
	if o.check {
		rec = history.New()
		clk.next = rec
	}
	start := time.Now()
	m, err := machine.New(cfg, s, gen, sim.NewRNG(j.seed))
	if err != nil {
		r.chk.fail(j, 1, "machine.New: %v", err)
		return out
	}
	m.SetObserver(clk)
	if o.obs {
		m.SetObs(obs.New())
	}
	if o.tr != nil {
		m.SetEpochHook(o.tr.epochHook)
		sp := o.tr.timeTop(layerRun, func() { out.sum = m.Run() })
		out.run = time.Duration(sp.end - sp.start)
		out.self, out.sched = o.tr.closeRun(sp, r.tags(j))
	} else {
		out.sum = m.Run()
	}
	out.host = time.Since(start)
	out.rawHost = out.host
	out.clock = time.Duration(cfg.Duration) * time.Microsecond
	out.events = m.Engine().Executed()
	out.commits = len(clk.rts)
	out.rts = clk.rts

	r.checkDigest(j, out.sum)
	if rec != nil {
		if rec.Commits() != out.sum.Completions {
			r.chk.fail(j, 1, "history recorded %d commits, summary %d", rec.Commits(), out.sum.Completions)
		}
		// NODC performs no concurrency control; its histories are not
		// serializable by design.
		if j.point.sched != "NODC" {
			if err := rec.CheckSerializable(); err != nil {
				r.chk.fail(j, 1, "%v", err)
			}
		}
	}
	return out
}

func (r *runner) liveJob(j job, o runOpts) (out outcome) {
	batch := r.batches[j.round]
	n := len(batch)
	r.chk.attempted += n
	s, err := sched.New(j.point.sched, sched.DefaultParams())
	if err != nil {
		r.chk.fail(j, n, "%v", err)
		return out
	}
	if o.tr != nil {
		s = o.tr.wrapSched(s)
	}
	var b *live.Backend
	newStart := time.Now()
	if o.tr != nil {
		sp := o.tr.timeTop(layerLiveNew, func() { b, err = live.New(r.w.liveCfg, s) })
		o.tr.keepTop(sp, r.tags(j))
	} else {
		b, err = live.New(r.w.liveCfg, s)
	}
	out.newDur = time.Since(newStart)
	if err != nil {
		r.chk.fail(j, n, "live.New: %v", err)
		return out
	}
	for _, steps := range batch {
		b.Submit(steps)
	}
	clk := &commitClock{}
	var rec *history.Recorder
	if o.check {
		rec = history.New()
		// Wall-clock stamps from racing DPN goroutines are not globally
		// ordered; the recorder clamps them monotone.
		rec.SetMonotone(true)
		clk.next = rec
	}
	b.SetObserver(clk)
	if o.obs {
		b.SetObs(obs.New())
	}
	start := time.Now()
	clk.start = start
	if o.tr != nil {
		sp := o.tr.timeTop(layerRun, func() { out.sum = b.Run() })
		out.run = time.Duration(sp.end - sp.start)
		out.self, out.sched = o.tr.closeRun(sp, r.tags(j))
	} else {
		out.sum = b.Run()
	}
	out.host = time.Since(start)
	out.rawHost = out.host
	out.clock = time.Duration(out.sum.Window) * time.Microsecond
	out.commits = len(clk.rts)
	out.rts = clk.rts
	out.viol = b.Violations()

	switch {
	case b.Err() != nil:
		r.chk.fail(j, n, "%v", b.Err())
	case out.viol != 0:
		r.chk.fail(j, n, "%d lock-guard violations", out.viol)
	case b.InFlight() != 0 || out.commits != n:
		r.chk.fail(j, n, "%d of %d transactions committed", out.commits, n)
	case rec != nil:
		if err := rec.CheckSerializable(); err != nil {
			r.chk.fail(j, n, "%v", err)
		}
	}
	return out
}

// checkDigest requires every run of a job to produce its first run's
// summary.
func (r *runner) checkDigest(j job, sum metrics.Summary) {
	d := digest(sum)
	if first, ok := r.chk.digests[j.idx]; !ok {
		r.chk.digests[j.idx] = d
	} else if d != first {
		r.chk.fail(j, 1, "summary digest %s, first run gave %s", d, first)
	}
}

// digest fingerprints every field of a summary.
func digest(sum metrics.Summary) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", sum)))
	return hex.EncodeToString(h[:8])
}

// commitClock is the benchmark's engine.Observer: it records each
// commit's response time on the backend's clock and forwards to the history
// recorder on check passes. On the simulator that is the virtual response
// time; on the live backend, the wall time from Run start, where the whole
// closed batch arrives.
type commitClock struct {
	start time.Time // live: when Run started; zero on the simulator
	rts   []float64 // ms
	next  engine.Observer
}

func (c *commitClock) StepDone(t *model.Txn, step int, at sim.Time) {
	if c.next != nil {
		c.next.StepDone(t, step, at)
	}
}

func (c *commitClock) Committed(t *model.Txn, at sim.Time) {
	rt := float64(at-t.Arrival) / float64(sim.Millisecond)
	if !c.start.IsZero() {
		rt = float64(time.Since(c.start)) / float64(time.Millisecond)
	}
	c.rts = append(c.rts, rt)
	if c.next != nil {
		c.next.Committed(t, at)
	}
}

func (c *commitClock) Restarted(t *model.Txn, at sim.Time) {
	if c.next != nil {
		c.next.Restarted(t, at)
	}
}

// endToEnd computes the tracing-off metrics.
func (b *bench) endToEnd() (map[string]metric, error) {
	var hosts, raw, rts []float64
	var clocks, hostDurs []time.Duration
	var commits int
	var clock, setupNew time.Duration
	for _, o := range b.best {
		hosts = append(hosts, float64(o.host)/float64(time.Millisecond))
		raw = append(raw, float64(o.rawHost)/float64(time.Millisecond))
		rts = append(rts, o.rts...)
		clocks = append(clocks, o.clock)
		hostDurs = append(hostDurs, o.host)
		commits += o.commits
		clock += o.clock
		setupNew += o.newDur
	}
	var bare, observed time.Duration
	for i, o := range b.observed {
		observed += o.host
		bare += b.bare[i].host
	}
	m := map[string]metric{
		"setup_s":            {median(b.setupCol(1)) + setupNew.Seconds(), "s"},
		"sim_speed":          {clockSpeed(clocks, hostDurs), "s/s"},
		"obs_overhead":       {observed.Seconds() / bare.Seconds(), "x"},
		"live_commits_per_s": {float64(commits) / clock.Seconds(), "1/s"},
	}
	var errs []error
	pct := func(key string, xs []float64, p float64) {
		v, err := percentile(xs, p)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key, err))
		}
		m[key] = metric{v, "ms"}
	}
	pct("run_ms_p50", hosts, 0.50)
	pct("run_ms_p90", hosts, 0.90)
	pct("live_rt_ms_p50", rts, 0.50)
	pct("live_rt_ms_p99", rts, 0.99)
	b.info = append(b.info,
		fmt.Sprintf("timed pass: median of %d repetitions of each of %d %s; %d committed transactions",
			b.reps, len(hosts), b.unit(), len(rts)),
		fmt.Sprintf("host slowdown against the reference host (%v per reference call): set-up %.3f, timed repetitions %.3f to %.3f",
			refNominal, b.setupSlow, slices.Min(b.passSlow), slices.Max(b.passSlow)),
		fmt.Sprintf("unscaled: run_ms_p50 %.4g ms, setup_s %.4g s", median(raw), median(b.setupCol(0))))
	return m, errors.Join(errs...)
}

// setupCol is column i of the set-up times: 0 as measured, 1 scaled.
func (b *bench) setupCol(i int) []float64 {
	out := make([]float64, len(b.setup))
	for k, s := range b.setup {
		out[k] = s[i]
	}
	return out
}

func (b *bench) unit() string {
	if b.r.w.live {
		return "live batches"
	}
	return "simulations"
}

// layerMetrics computes the per-layer metrics of the traced pass. Layers a
// workload leaves idle report 0.
func (b *bench) layerMetrics() map[string]metric {
	tr := b.tr
	var untraced, traced, runSpan, self, schedBusy, newBusy, makespan time.Duration
	var events uint64
	var commits, restarts, blocks, delays, viol int
	var dpnUtil float64
	perSched := map[string][2]time.Duration{} // scheduler -> {its calls, Run spans}
	for i, o := range b.tracedO {
		name := b.r.jobs[i].point.sched
		v := perSched[name]
		perSched[name] = [2]time.Duration{v[0] + o.sched, v[1] + o.run}
		schedBusy += o.sched
		untraced += b.untraced[i].host
		traced += o.host
		runSpan += o.run
		self += o.self
		newBusy += o.newDur
		events += o.events
		commits += o.commits
		restarts += o.sum.Restarts
		blocks += o.sum.Blocks
		delays += o.sum.Delays
		viol += o.viol
		makespan += o.clock
		dpnUtil += o.sum.DPNUtilization
	}
	var bareAux, obsAux time.Duration
	for i, o := range b.observed {
		obsAux += o.host
		bareAux += b.bare[i].host
	}
	isLive := b.r.w.live
	simOnly := func(v float64) float64 {
		if isLive {
			return 0
		}
		return v
	}
	liveOnly := func(v float64) float64 {
		if !isLive {
			return 0
		}
		return v
	}
	st := func(l layer) layerStat { return tr.stats[l] }
	e := tr.epochs
	m := map[string]metric{
		"bench.trace_overhead": {ratio(traced.Seconds(), untraced.Seconds()), "x"},
		"bench.runs":           {float64(len(b.tracedO)), "count"},
		"bench.host_slowdown":  {b.setupSlow, "x"},

		"machine.self_s":        {simOnly(self.Seconds()), "s"},
		"sim.events":            {float64(events), "count"},
		"sim.ns_per_event":      {ratio(float64(untraced), float64(events)), "ns"},
		"sim.events_per_commit": {ratio(float64(events), float64(commits)), "count"},

		"sched.share":                  {ratio(schedBusy.Seconds(), runSpan.Seconds()), "x"},
		"sched.admit.accept_ratio":     {ratio(float64(tr.admitted), float64(st(layerAdmit).calls)), "x"},
		"sched.admit.calls_per_commit": {ratio(float64(st(layerAdmit).calls), float64(commits)), "count"},
		"sched.request.grant_ratio":    {ratio(float64(tr.granted), float64(st(layerRequest).calls)), "x"},

		"admit.epochs":                    {float64(tr.nEpochs), "count"},
		"admit.arrivals":                  {float64(e.Arrivals), "count"},
		"admit.admitted":                  {float64(e.Admitted), "count"},
		"admit.shed_ratio":                {ratio(float64(e.Sheds), float64(e.Arrivals)), "x"},
		"admit.queue_depth_max":           {float64(e.QueueDepth), "count"},
		"admit.evictions":                 {float64(e.Evictions), "count"},
		"admit.machine_self_ms_per_epoch": {ratio(simOnly(self.Seconds())*1e3, float64(tr.nEpochs)), "ms"},

		"live.makespan_s":       {liveOnly(makespan.Seconds()), "s"},
		"live.self_s":           {liveOnly(self.Seconds()), "s"},
		"live.restarts":         {liveOnly(float64(restarts)), "count"},
		"live.blocks":           {liveOnly(float64(blocks)), "count"},
		"live.delays":           {liveOnly(float64(delays)), "count"},
		"live.dpn_util":         {liveOnly(ratio(dpnUtil, float64(len(b.tracedO)))), "x"},
		"live.guard_violations": {float64(viol), "count"},
		"live.new.calls":        {float64(st(layerLiveNew).calls), "count"},
		"live.new.busy_s":       {newBusy.Seconds(), "s"},

		"obs.observed.busy_s":   {obsAux.Seconds(), "s"},
		"obs.bare.busy_s":       {bareAux.Seconds(), "s"},
		"workload.steps.calls":  {float64(st(layerSteps).calls), "count"},
		"workload.steps.busy_s": {st(layerSteps).busy.Seconds(), "s"},
	}
	for _, name := range []string{"GOW", "LOW", "C2PL", "NODC"} {
		v := perSched[name]
		m["sched.share."+name] = metric{ratio(v[0].Seconds(), v[1].Seconds()), "x"}
	}
	for _, l := range []layer{layerAdmit, layerRequest, layerValidate, layerRelease, layerPrescreen} {
		m[layerNames[l]+".calls"] = metric{float64(st(l).calls), "count"}
		m[layerNames[l]+".busy_s"] = metric{st(l).busy.Seconds(), "s"}
	}
	b.info = append(b.info,
		fmt.Sprintf("traced pass: %d %s, each beside an untraced run", len(b.tracedO), b.unit()))
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// commit names the source revision the binary was built from, when the
// build recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

func (b *bench) hostLine() string {
	return fmt.Sprintf("host: GOMAXPROCS=%d NumCPU=%d go=%s commit=%s; workload=%s seed=%d trace=%t",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), b.name, b.seed, b.traced)
}

// report prints the human-readable lines and then the JSON result.
func (b *bench) report(w io.Writer, res result) error {
	fmt.Fprintln(w, "#", b.hostLine())
	for _, l := range b.info {
		fmt.Fprintln(w, "#", l)
	}
	fmt.Fprintf(w, "# checks: %d operations attempted, %d failed (failed_ratio %.4g)\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	raw, err := json.Marshal(res)
	if err != nil { // a metric came out NaN or infinite
		return err
	}
	fmt.Fprintln(w, string(raw))
	return nil
}

// writeSpans writes the kept spans, one JSON object a line after a header
// line with the host, once at exit.
func (b *bench) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]string{"host": b.hostLine()}); err != nil {
		f.Close()
		return err
	}
	for _, s := range b.tr.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.info = append(b.info, fmt.Sprintf("spans: %d written to %s", len(b.tr.kept), path))
	return nil
}
