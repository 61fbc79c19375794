package main

import (
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/pool"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// layer names one boundary the tracer times from outside the program.
type layer int

const (
	layerAdmit     layer = iota // sched.Scheduler.Admit
	layerRequest                // sched.Scheduler.Request
	layerValidate               // sched.Scheduler.Validate
	layerRelease                // sched.Scheduler.Committed and Aborted
	layerPrescreen              // sched.AdmitScreener.PrescreenAdmits
	layerSteps                  // engine.Generator.Steps
	layerRun                    // machine.(*Machine).Run or live.(*Backend).Run
	layerLiveNew                // live.New
	numLayers
)

var layerNames = [numLayers]string{
	"sched.admit", "sched.request", "sched.validate", "sched.release",
	"sched.prescreen", "workload.steps", "run", "live.new",
}

// isSched reports whether l is a call into the scheduler.
func (l layer) isSched() bool { return l <= layerPrescreen }

// layerStat sums the calls into one layer.
type layerStat struct {
	calls int64
	busy  time.Duration
}

// tracer times calls into the program's layers. It is used from one
// goroutine at a time: the benchmark's own, or the live backend's control
// node goroutine, which is the goroutine that calls Run.
type tracer struct {
	epoch time.Time
	stats [numLayers]layerStat
	// children holds the current run's spans; selfTime turns them into the
	// run's own time, and they are kept for output while keep is set.
	children []span
	keep     bool
	kept     []spanRecord
	maxKept  int

	admitted, granted int64

	epochs  admit.EpochStats // sums of per-epoch counts; QueueDepth is the max
	nEpochs int64
}

// spanRecord is one span as written out, tagged with its run.
type spanRecord struct {
	Run      int    `json:"run"`
	Workload string `json:"workload"`
	Sched    string `json:"sched"`
	Seed     int64  `json:"seed"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func newTracer(maxKept int) *tracer {
	return &tracer{epoch: time.Now(), maxKept: maxKept}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// end closes a child span begun at start.
func (tr *tracer) end(l layer, start int64) {
	t := tr.now()
	st := &tr.stats[l]
	st.calls++
	st.busy += time.Duration(t - start)
	tr.children = append(tr.children, span{layer: l, start: start, end: t})
}

// timeTop records a top-level span (a run or a constructor) for l around f
// and returns it; the children recorded while f runs belong to it.
func (tr *tracer) timeTop(l layer, f func()) span {
	start := tr.now()
	f()
	s := span{layer: l, start: start, end: tr.now()}
	st := &tr.stats[l]
	st.calls++
	st.busy += time.Duration(s.end - s.start)
	return s
}

// closeRun returns the run's self time (its span minus its children) and
// the time its scheduler calls took and, while spans are being kept, files
// the run and its children under tags.
func (tr *tracer) closeRun(run span, tags spanRecord) (self, sched time.Duration) {
	for _, c := range tr.children {
		if c.layer.isSched() {
			sched += time.Duration(c.end - c.start)
		}
	}
	self = selfTime(run, tr.children)
	if tr.keep && len(tr.kept)+len(tr.children)+1 <= tr.maxKept {
		r := tags
		r.Name, r.StartNS, r.EndNS = layerNames[run.layer], run.start, run.end
		tr.kept = append(tr.kept, r)
		for _, c := range tr.children {
			r.Name, r.Parent, r.StartNS, r.EndNS = layerNames[c.layer], layerNames[run.layer], c.start, c.end
			tr.kept = append(tr.kept, r)
		}
	}
	tr.children = tr.children[:0]
	return self, sched
}

// keepTop files a childless top-level span (live.New) while spans are kept.
func (tr *tracer) keepTop(s span, tags spanRecord) {
	if tr.keep && len(tr.kept) < tr.maxKept {
		tags.Name, tags.StartNS, tags.EndNS = layerNames[s.layer], s.start, s.end
		tr.kept = append(tr.kept, tags)
	}
}

// epochHook is the admission epoch hook (machine SetEpochHook).
func (tr *tracer) epochHook(e admit.EpochStats) {
	tr.nEpochs++
	tr.epochs.Arrivals += e.Arrivals
	tr.epochs.Admitted += e.Admitted
	tr.epochs.Sheds += e.Sheds
	tr.epochs.Evictions += e.Evictions
	tr.epochs.QueueDepth = max(tr.epochs.QueueDepth, e.QueueDepth)
}

// wrapSched returns s with every scheduler call timed. The wrapper offers
// the optional interfaces the backends type-assert exactly as s does, so a
// wrapped run takes the same code paths as a bare one: AdmitScreener only
// when s screens (its presence alone changes the epoch loop), and Audited,
// LoadAware and DecisionParallel always, forwarding to s when it
// implements them and otherwise doing what a missing interface does.
func (tr *tracer) wrapSched(s sched.Scheduler) sched.Scheduler {
	w := &timedSched{inner: s, tr: tr}
	if as, ok := s.(sched.AdmitScreener); ok {
		return &timedScreener{timedSched: w, screener: as}
	}
	return w
}

type timedSched struct {
	inner sched.Scheduler
	tr    *tracer
}

func (w *timedSched) Name() string { return w.inner.Name() }

func (w *timedSched) Admit(t *model.Txn) (bool, sim.Time) {
	start := w.tr.now()
	ok, cpu := w.inner.Admit(t)
	w.tr.end(layerAdmit, start)
	if ok {
		w.tr.admitted++
	}
	return ok, cpu
}

func (w *timedSched) Request(t *model.Txn) sched.Outcome {
	start := w.tr.now()
	out := w.inner.Request(t)
	w.tr.end(layerRequest, start)
	if out.Decision == sched.Grant {
		w.tr.granted++
	}
	return out
}

func (w *timedSched) Validate(t *model.Txn) (bool, sim.Time) {
	start := w.tr.now()
	ok, cpu := w.inner.Validate(t)
	w.tr.end(layerValidate, start)
	return ok, cpu
}

func (w *timedSched) Committed(t *model.Txn) {
	start := w.tr.now()
	w.inner.Committed(t)
	w.tr.end(layerRelease, start)
}

func (w *timedSched) Aborted(t *model.Txn) {
	start := w.tr.now()
	w.inner.Aborted(t)
	w.tr.end(layerRelease, start)
}

// SetAudit implements sched.Audited.
func (w *timedSched) SetAudit(a *obs.Audit) {
	if au, ok := w.inner.(sched.Audited); ok {
		au.SetAudit(a)
	}
}

// SetLoadProbe implements sched.LoadAware.
func (w *timedSched) SetLoadProbe(probe func(model.FileID) float64) {
	if la, ok := w.inner.(sched.LoadAware); ok {
		la.SetLoadProbe(probe)
	}
}

// DecisionWorkers implements sched.DecisionParallel; 0 (the sequential
// path) when the wrapped scheduler cannot fan out.
func (w *timedSched) DecisionWorkers() int {
	if dp, ok := w.inner.(sched.DecisionParallel); ok {
		return dp.DecisionWorkers()
	}
	return 0
}

// SetDecisionLane implements sched.DecisionParallel.
func (w *timedSched) SetDecisionLane(l *pool.Lane) {
	if dp, ok := w.inner.(sched.DecisionParallel); ok {
		dp.SetDecisionLane(l)
	}
}

// timedScreener is timedSched for schedulers that implement
// sched.AdmitScreener.
type timedScreener struct {
	*timedSched
	screener sched.AdmitScreener
}

func (w *timedScreener) PrescreenAdmits(ts []*model.Txn) {
	start := w.tr.now()
	w.screener.PrescreenAdmits(ts)
	w.tr.end(layerPrescreen, start)
}

// timedGen times engine.Generator.Steps.
type timedGen struct {
	inner engine.Generator
	tr    *tracer
}

func (g timedGen) Steps(rng *sim.RNG) []model.Step {
	start := g.tr.now()
	st := g.inner.Steps(rng)
	g.tr.end(layerSteps, start)
	return st
}
