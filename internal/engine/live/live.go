// Package live is the real-execution backend: the same scheduler core the
// simulator drives, executed for real — one goroutine per data-processing
// node over an in-memory partitioned store, Go channels for CN<->DPN
// messaging, wall-clock round-robin service, and per-DPN lock tables
// (internal/lock) checking at the data that the scheduler's grants were
// compatible.
//
// The control node is one goroutine owning the scheduler, the metrics
// collector and every observer, so all of those stay single-threaded
// exactly as under simulation. It processes an internal FIFO job queue
// (admissions, lock requests, step completions, commits) with the same
// queue discipline as machine.controlNode, and — critically — drains that
// queue fully before consuming the next DPN completion. That discipline is
// what pins the scheduler-call order of the initial admission sweep and its
// grant/wake cascades to the simulator's, making sim-vs-live decision logs
// comparable (DESIGN.md §12).
//
// A live run is a closed batch: Submit every transaction, then Run drives
// the batch to commit and summarizes at the makespan. There is no arrival
// process and no fault injection.
package live

import (
	"fmt"
	"sync"
	"time"

	"strconv"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/obs/stream"
	"batchsched/internal/pool"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// Config parameterizes a live run. The machine-shape fields (NumNodes,
// NumFiles, DD) mean exactly what they mean in machine.Config; the
// execution fields replace virtual service times with real work.
type Config struct {
	// NumNodes is the number of data-processing nodes (goroutines).
	NumNodes int
	// NumFiles is the database size in files.
	NumFiles int
	// DD is the degree of declustering: a step of cost C runs as DD
	// cohorts of C/DD objects on consecutive nodes.
	DD int
	// MPL caps admitted-and-uncommitted transactions (0 = unlimited),
	// machine-level admission control as in machine.Config.
	MPL int
	// RowsPerObject sizes the store: each partition slab is one object of
	// this many rows, and a step of cost C scans C*RowsPerObject/DD rows
	// per cohort.
	RowsPerObject int
	// PacePerObject is a wall-time floor per object scanned (spread over
	// the 1/DD-object quanta). 0 runs compute-bound — as fast as the store
	// scan goes. Set it when service time should dominate scheduling
	// overhead, e.g. for throughput-ranking runs.
	PacePerObject time.Duration
	// RestartDelay holds an aborted transaction out of admission for this
	// much wall time before it retries, mirroring machine.Config's field of
	// the same name. Without it, a strict-2PL deadlock victim re-acquires
	// its first-step locks the instant they release, which can starve the
	// very conflictor its abort was supposed to unblock (restart livelock).
	// 0 retries immediately.
	RestartDelay time.Duration
	// RestartJitter randomizes each hold-back to uniform [0.5, 1.5) x
	// RestartDelay, exactly as machine.Config.RestartJitter: fixed delays
	// can phase-lock symmetric deadlock victims into a periodic restart
	// orbit. Ignored when RestartDelay is zero.
	RestartJitter bool
	// Deadline aborts a stalled run (lost completion, scheduler livelock)
	// instead of hanging the process; Err reports the stall. Default 30s.
	Deadline time.Duration
	// SampleEvery is the observability sampling period on the wall clock
	// (0 = sample only at Finish).
	SampleEvery time.Duration
	// Service switches the backend into streaming-admission mode
	// (internal/admit; see service.go): use RunService instead of
	// Submit+Run. The window bound comes from Service.MPL, so MPL must be 0.
	Service *admit.Policy
	// ServiceDuration is the wall-time span of a service run (required in
	// service mode): arrivals stop after it and the run drains.
	ServiceDuration time.Duration
}

// DefaultConfig mirrors the simulator's machine shape (8 nodes, 16 files,
// DD 1) with a small store and compute-bound service.
func DefaultConfig() Config {
	return Config{
		NumNodes:      8,
		NumFiles:      16,
		DD:            1,
		RowsPerObject: 64,
		Deadline:      30 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumNodes < 1 {
		return fmt.Errorf("live: NumNodes must be >= 1, got %d", c.NumNodes)
	}
	if c.NumFiles < 1 {
		return fmt.Errorf("live: NumFiles must be >= 1, got %d", c.NumFiles)
	}
	if c.DD < 1 || c.DD > c.NumNodes {
		return fmt.Errorf("live: DD must be in [1, NumNodes=%d], got %d", c.NumNodes, c.DD)
	}
	if c.RowsPerObject < 1 {
		return fmt.Errorf("live: RowsPerObject must be >= 1, got %d", c.RowsPerObject)
	}
	if c.MPL < 0 {
		return fmt.Errorf("live: MPL must be >= 0, got %d", c.MPL)
	}
	if c.RestartDelay < 0 {
		return fmt.Errorf("live: RestartDelay must be >= 0, got %v", c.RestartDelay)
	}
	if c.Service != nil {
		if err := c.Service.Validate(); err != nil {
			return err
		}
		if c.MPL != 0 {
			return fmt.Errorf("live: service mode takes its window from Service.MPL; Config.MPL must be 0, got %d", c.MPL)
		}
		if c.ServiceDuration <= 0 {
			return fmt.Errorf("live: service mode needs ServiceDuration > 0, got %v", c.ServiceDuration)
		}
	}
	return nil
}

// liveOp codes the CN's internal jobs (the live analogue of machine's
// op-coded cnJob).
type liveOp int

const (
	opAdmit liveOp = iota
	opRequest
	opStepDone
	opCommit
)

type liveJob struct {
	op  liveOp
	e   *texec
	run *liveRun
}

// texec is the runtime wrapper around one transaction (live analogue of
// machine.exec).
type texec struct {
	txn      *model.Txn
	admitted bool
	class    admit.Class // service class (service mode only)
	run      *liveRun
	item     admit.Item // admission-queue entry (service mode only)

	txnSpan    obs.SpanID
	admitSpan  obs.SpanID
	waitSpan   obs.SpanID
	stepSpan   obs.SpanID
	commitSpan obs.SpanID
	waitSince  sim.Time
}

// liveRun is one step dispatch: DD cohorts in flight, counted down by
// completions.
type liveRun struct {
	e       *texec
	pending int
}

// Backend is one live run: build with New, Submit the batch, call Run once.
// All methods are driven from one goroutine (the caller's, which becomes
// the CN); only the DPN workers run concurrently.
type Backend struct {
	cfg   Config
	sch   sched.Scheduler
	met   *metrics.Collector
	clk   *wallClock
	place engine.Placement

	dpns []*dpnWorker
	comp chan completion
	wg   sync.WaitGroup

	restartQ       chan *texec
	restartPending int
	restartRNG     *sim.RNG

	obs engine.Observer

	ob          *obs.Observer
	spanKinds   obs.Lifecycle
	obsGrant    *obs.Counter
	obsBlock    *obs.Counter
	obsDelay    *obs.Counter
	obsRestart  *obs.Counter
	obsCommit   *obs.Counter
	obsLockWait *obs.Histogram
	obsRetries  *obs.Histogram
	lastSample  sim.Time

	// Streaming instruments (telemetry for the /metrics endpoint). All nil
	// when telemetry is off; every update below is nil-receiver safe and the
	// rest are guarded on b.stream, so the disabled cost is one pointer test.
	stream      *stream.Set
	strGrants   *stream.Rate
	strBlocks   *stream.Rate
	strRestarts *stream.Rate
	strCommits  *stream.Rate
	strRT       *stream.Sketch
	strActive   *stream.Gauge
	strWaiting  *stream.Gauge

	// Service-mode state (service.go); svc is nil outside service mode.
	svc           *admit.Service
	window        int // popped from the queue, not yet committed or evicted
	epochNum      int
	epochStart    sim.Time
	epochPrev     admit.Stats
	epochRTs      []sim.Time
	epochHook     func(admit.EpochStats)
	shedBuf       []admit.Shed // Arrive/Expire/Drain shed lists, reused
	strSheds      *stream.Rate
	strQueueDepth *stream.Gauge
	strSojournUS  *stream.Gauge

	txns    []*texec
	jobs    []liveJob
	admitQ  []*texec
	blocked map[model.FileID][]*texec
	delayed []*texec

	// workPool backs the scheduler's parallel decision engine when the
	// scheduler implements sched.DecisionParallel with DecisionWorkers > 1
	// (nil otherwise); screenBuf is fillWindowLive's prescreen batch.
	workPool  *pool.Pool
	screenBuf []*model.Txn

	nextID     int64
	active     int
	completed  int
	checksum   uint64
	violations int
	cnBusy     time.Duration
	ran        bool
	err        error
}

// Backend is an execution backend.
var _ engine.Backend = (*Backend)(nil)

// New builds a live backend. The scheduler must be fresh (one per run).
func New(cfg Config, s sched.Scheduler) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("live: nil scheduler")
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	b := &Backend{
		cfg:        cfg,
		sch:        s,
		met:        metrics.NewCollector(cfg.NumNodes, 0),
		clk:        newWallClock(),
		place:      engine.Placement{NumNodes: cfg.NumNodes, DD: cfg.DD},
		blocked:    make(map[model.FileID][]*texec),
		restartRNG: sim.NewRNG(1).Stream("restart"),
	}
	// The CN goroutine owns the scheduler either way; a decision lane only
	// parallelizes the evaluation inside one scheduler call, so decisions
	// stay byte-identical to the sequential path (DESIGN.md §17). Workers
	// start lazily, so a pool that never fans out costs nothing.
	if dp, ok := s.(sched.DecisionParallel); ok && dp.DecisionWorkers() > 1 {
		b.workPool = pool.New("live", dp.DecisionWorkers())
		dp.SetDecisionLane(b.workPool.Lane("decision"))
	}
	return b, nil
}

// stopPool shuts the decision workers down (Run/RunService call it on exit
// so a run leaves no goroutines behind).
func (b *Backend) stopPool() {
	if b.workPool != nil {
		b.workPool.Stop()
	}
}

// Now returns the wall time elapsed since New, in sim.Time microseconds
// (engine.Clock).
func (b *Backend) Now() sim.Time { return b.clk.Now() }

// SetObserver installs an execution observer (history recorder etc.). It is
// called only from the CN goroutine, so the same single-threaded recorders
// work on both backends.
func (b *Backend) SetObserver(o engine.Observer) { b.obs = o }

// SetObs attaches the observability layer, mirroring machine.SetObs:
// lifecycle and cohort spans, decision counters, the lock-wait histogram,
// scheduler audit (stamped with the wall clock) and registry gauges sampled
// on cfg.SampleEvery. Call before Run.
func (b *Backend) SetObs(o *obs.Observer) {
	if o == nil {
		return
	}
	b.ob = o
	b.spanKinds = o.LifecycleKinds()
	b.obsGrant = o.Counter("grants")
	b.obsBlock = o.Counter("blocks")
	b.obsDelay = o.Counter("delays")
	b.obsRestart = o.Counter("restarts")
	b.obsCommit = o.Counter("commits")
	b.obsLockWait = o.Histogram("lock_wait_ms",
		[]float64{1, 10, 100, 1_000, 10_000, 60_000, 300_000})
	b.obsRetries = o.Histogram("restarts_per_txn",
		[]float64{0, 1, 2, 5, 10})
	o.Gauge("active_txns", func() float64 { return float64(b.active) })
	o.Gauge("waiting_txns", func() float64 {
		n := len(b.delayed)
		for _, l := range b.blocked {
			n += len(l)
		}
		return float64(n)
	})
	o.Gauge("cn_busy_ms", func() float64 { return float64(b.cnBusy) / float64(time.Millisecond) })
	o.Audit().SetClock(b.clk.Now)
	if a, ok := b.sch.(sched.Audited); ok {
		a.SetAudit(o.Audit())
	}
}

// SetStream attaches the streaming telemetry registry: wall-clock decision
// and commit rates, the response-time quantile sketch, active/waiting
// gauges, clamp counters, and (registered in Run, once the workers exist)
// per-DPN queue-depth, busy-time and row-scan instruments. Unlike SetObs,
// these are written on the hot path and read concurrently by the scrape
// endpoint — which is why they are stream instruments (atomics) and not
// registry gauges over CN fields. Call before Run; a nil set disables.
func (b *Backend) SetStream(set *stream.Set) {
	if set == nil {
		return
	}
	b.stream = set
	const win, slot = 10 * time.Second, time.Second
	b.strGrants = set.Rate("live_grants", "Scheduler grant decisions.", win, slot)
	b.strBlocks = set.Rate("live_blocks", "Scheduler block decisions.", win, slot)
	b.strRestarts = set.Rate("live_restarts", "Transaction aborts and restarts.", win, slot)
	b.strCommits = set.Rate("live_commits", "Committed transactions.", win, slot)
	b.strRT = set.Sketch("live_rt_seconds", "Transaction response time in seconds.")
	b.strActive = set.Gauge("live_active_txns", "Admitted and uncommitted transactions.")
	b.strWaiting = set.Gauge("live_waiting_txns", "Blocked, policy-delayed, or admission-parked transactions.")
	set.GaugeFunc("obs_clock_clamps", "Monotone clock-regression clamps in the observability layer (span ends plus samples).", func() float64 {
		ends, samples := b.ob.ClockClamps()
		return float64(ends + samples)
	})
}

// mark counts one event on a stream rate at the current wall clock.
func (b *Backend) mark(r *stream.Rate) {
	if r != nil {
		r.Add(b.clk.Now(), 1)
	}
}

// sampleStreamGauges refreshes the CN-owned point-in-time gauges. Called
// from the CN loop so the scrape endpoint never reads CN fields directly.
func (b *Backend) sampleStreamGauges() {
	if b.stream == nil {
		return
	}
	b.strActive.Set(int64(b.active))
	n := len(b.delayed) + len(b.admitQ)
	for _, l := range b.blocked {
		n += len(l)
	}
	b.strWaiting.Set(int64(n))
}

// ClockClamps reports the attached observer's monotone clock-clamp
// counters (zero when no observer is attached). Safe from any goroutine.
func (b *Backend) ClockClamps() (spanEnds, samples int64) { return b.ob.ClockClamps() }

// SLOSnapshot is the /slo endpoint's view of a run in flight, assembled
// entirely from streaming instruments (atomics), so it can be taken from
// the scrape goroutine while the CN and DPNs execute.
type SLOSnapshot struct {
	ActiveTxns    int64   `json:"activeTxns"`
	WaitingTxns   int64   `json:"waitingTxns"`
	Commits       int64   `json:"commits"`
	CommitsPerSec float64 `json:"commitsPerSec"`
	Grants        int64   `json:"grants"`
	Blocks        int64   `json:"blocks"`
	Restarts      int64   `json:"restarts"`
	P50RTSeconds  float64 `json:"p50RtSeconds"`
	P95RTSeconds  float64 `json:"p95RtSeconds"`
	ClockClamps   int64   `json:"clockClamps"`
}

// Snapshot returns the current SLO snapshot (zero value when no stream set
// is attached). Safe from any goroutine.
func (b *Backend) Snapshot() SLOSnapshot {
	if b.stream == nil {
		return SLOSnapshot{}
	}
	ends, samples := b.ClockClamps()
	return SLOSnapshot{
		ActiveTxns:    b.strActive.Value(),
		WaitingTxns:   b.strWaiting.Value(),
		Commits:       b.strCommits.Total(),
		CommitsPerSec: b.strCommits.RatePerSec(b.clk.Now()),
		Grants:        b.strGrants.Total(),
		Blocks:        b.strBlocks.Total(),
		Restarts:      b.strRestarts.Total(),
		P50RTSeconds:  b.strRT.Quantile(0.5),
		P95RTSeconds:  b.strRT.Quantile(0.95),
		ClockClamps:   ends + samples,
	}
}

// Submit adds one transaction to the batch. Call before Run.
func (b *Backend) Submit(steps []model.Step) *model.Txn {
	if b.ran {
		panic("live: Submit after Run")
	}
	b.nextID++
	t := model.NewTxn(b.nextID, b.clk.Now(), steps)
	b.txns = append(b.txns, &texec{txn: t})
	return t
}

// InFlight reports how many submitted transactions have not committed.
func (b *Backend) InFlight() int { return int(b.nextID) - b.completed }

// Err reports whether the run stalled against its deadline (nil on a clean
// drain).
func (b *Backend) Err() error { return b.err }

// Violations returns the number of incompatible cohort co-residencies the
// DPN lock guards observed (only valid after Run). Zero for every real
// scheduler; positive under NODC by design.
func (b *Backend) Violations() int { return b.violations }

// Checksum returns the accumulated read checksum (proof the store scans
// really ran; also defeats dead-code elimination).
func (b *Backend) Checksum() uint64 { return b.checksum }

// Run executes the batch to commit and returns the summary, its window the
// batch makespan. A stall (which would mean a protocol bug — see the
// capacity argument below) is cut at cfg.Deadline and reported by Err.
func (b *Backend) Run() metrics.Summary {
	if b.ran {
		panic("live: Run called twice")
	}
	b.ran = true
	n := len(b.txns)

	// Channel capacities make every send non-blocking, which is the
	// deadlock-freedom argument: a transaction has at most one active step,
	// so at most n cohorts can be resident (or queued) per node and at most
	// n*NumNodes completions can be outstanding. Sized so, the CN never
	// blocks sending a cohort and a DPN never blocks sending a completion,
	// hence no send cycle exists to deadlock on.
	b.comp = make(chan completion, n*b.cfg.NumNodes+1)
	// At most one pending restart per transaction, so this capacity makes
	// the delayed-restart timer sends non-blocking too.
	b.restartQ = make(chan *texec, n+1)
	quantum := b.cfg.RowsPerObject / b.cfg.DD
	if quantum < 1 {
		quantum = 1
	}
	b.dpns = make([]*dpnWorker, b.cfg.NumNodes)
	for i := range b.dpns {
		b.dpns[i] = &dpnWorker{
			id:          i,
			in:          make(chan *liveCohort, n+1),
			comp:        b.comp,
			clk:         b.clk,
			part:        make(map[model.FileID][]uint64),
			slabRows:    b.cfg.RowsPerObject,
			quantumRows: quantum,
			pace:        time.Duration(float64(b.cfg.PacePerObject) / float64(b.cfg.DD)),
			guard:       newDataGuard(),
			wg:          &b.wg,
		}
		if b.stream != nil {
			node := strconv.Itoa(i)
			d := b.dpns[i]
			d.strQueue = b.stream.Gauge("live_dpn_queue_depth",
				"Cohorts resident in the node's service ring.", "node", node)
			d.strBusyUS = b.stream.Gauge("live_dpn_busy_us",
				"Cumulative busy time at the node in microseconds.", "node", node)
			d.strRows = b.stream.Rate("live_dpn_rows_scanned",
				"Rows scanned by the node.", 10*time.Second, time.Second, "node", node)
		}
		b.wg.Add(1)
		go b.dpns[i].loop()
	}

	for _, e := range b.txns {
		b.met.Arrival(b.clk.Now())
		if b.ob.Enabled() {
			e.txnSpan = b.ob.Begin(b.spanKinds.Txn, e.txn.ID, -1, -1, 0, b.clk.Now())
		}
		b.jobs = append(b.jobs, liveJob{op: opAdmit, e: e})
	}

	deadline := time.NewTimer(b.cfg.Deadline)
	defer deadline.Stop()
	for b.completed < n {
		// Drain the internal queue fully before the next completion: the
		// ordering discipline that matches the simulator's CN.
		for len(b.jobs) > 0 {
			j := b.jobs[0]
			b.jobs = b.jobs[1:]
			t0 := time.Now()
			b.process(j)
			b.cnBusy += time.Since(t0)
		}
		if b.completed >= n {
			break
		}
		select {
		case c := <-b.comp:
			b.handleCompletion(c)
		case e := <-b.restartQ:
			b.restartPending--
			b.jobs = append(b.jobs, liveJob{op: opAdmit, e: e})
		case <-deadline.C:
			b.err = fmt.Errorf("live: stalled after %v: %d/%d committed, %d jobs queued, active=%d blocked=%d delayed=%d admitQ=%d restarting=%d",
				b.cfg.Deadline, b.completed, n, len(b.jobs), b.active, len(b.blocked), len(b.delayed), len(b.admitQ), b.restartPending)
		}
		if b.err != nil {
			break
		}
		b.sampleStreamGauges()
		if b.ob.Enabled() && b.cfg.SampleEvery > 0 {
			if now := b.clk.Now(); now-b.lastSample >= sim.Time(b.cfg.SampleEvery/time.Microsecond) {
				b.lastSample = now
				b.ob.SampleNow(now)
			}
		}
	}

	for _, d := range b.dpns {
		close(d.in)
	}
	b.wg.Wait()
	b.stopPool()
	for _, d := range b.dpns {
		b.met.DPNBusy(d.id, sim.Time(d.busy/time.Microsecond))
		b.violations += d.violations
	}
	b.met.CNBusy(sim.Time(b.cnBusy / time.Microsecond))
	now := b.clk.Now()
	b.ob.Finish(now)
	return b.met.Summarize(now)
}

// process runs one CN job: the scheduler call (the job body) and its
// consequences (the continuation), exactly as machine.cnBody/cnFinish pair
// them — with zero CPU charge, body and continuation are adjacent there
// too, so inlining them preserves the scheduler-call order.
func (b *Backend) process(j liveJob) {
	switch j.op {
	case opAdmit:
		b.processAdmit(j.e)
	case opRequest:
		b.processRequest(j.e)
	case opStepDone:
		b.processStepDone(j.run)
	case opCommit:
		b.processCommit(j.e)
	default:
		panic(fmt.Sprintf("live: unknown CN op %d", j.op))
	}
}

func (b *Backend) processAdmit(e *texec) {
	if b.cfg.MPL > 0 && b.active >= b.cfg.MPL && !e.admitted {
		b.parkAdmit(e)
		return
	}
	ok, _ := b.sch.Admit(e.txn)
	if !ok {
		b.met.AdmissionReject()
		e.txn.AdmissionTries++
		b.parkAdmit(e)
		return
	}
	if !e.admitted {
		e.admitted = true
		b.active++
	}
	e.txn.Status = model.Active
	if e.admitSpan != 0 {
		b.ob.End(e.admitSpan, b.clk.Now())
		e.admitSpan = 0
	}
	b.nextStep(e)
}

func (b *Backend) parkAdmit(e *texec) {
	if b.ob.Enabled() && e.admitSpan == 0 {
		e.admitSpan = b.ob.Begin(b.spanKinds.AdmitWait, e.txn.ID, -1, -1, e.txnSpan, b.clk.Now())
	}
	b.admitQ = append(b.admitQ, e)
}

func (b *Backend) nextStep(e *texec) {
	if e.txn.Done() {
		if b.ob.Enabled() {
			e.commitSpan = b.ob.Begin(b.spanKinds.Commit, e.txn.ID, -1, -1, e.txnSpan, b.clk.Now())
		}
		b.jobs = append(b.jobs, liveJob{op: opCommit, e: e})
		return
	}
	b.jobs = append(b.jobs, liveJob{op: opRequest, e: e})
}

func (b *Backend) processRequest(e *texec) {
	out := b.sch.Request(e.txn)
	switch out.Decision {
	case sched.Grant:
		b.met.Granted()
		b.obsGrant.Inc()
		b.mark(b.strGrants)
		b.endWait(e)
		if b.ob.Enabled() {
			e.stepSpan = b.ob.Begin(b.spanKinds.Execute, e.txn.ID, -1,
				e.txn.StepIndex, e.txnSpan, b.clk.Now())
		}
		b.executeStep(e)
		b.wakeDelayed() // a grant changes the scheduling state
	case sched.Block:
		b.met.Block()
		b.obsBlock.Inc()
		b.mark(b.strBlocks)
		b.beginWait(e)
		file := e.txn.CurrentStep().File
		b.blocked[file] = append(b.blocked[file], e)
	case sched.Delay:
		b.met.Delay()
		b.obsDelay.Inc()
		b.beginWait(e)
		b.delayed = append(b.delayed, e)
	case sched.Abort:
		// Deadlock victim (strict 2PL): roll back, release, restart. No
		// cohorts are in flight — the decision happened at request time.
		b.met.Restart()
		b.obsRestart.Inc()
		b.mark(b.strRestarts)
		e.txn.Restarts++
		b.endWait(e)
		b.sch.Aborted(e.txn)
		e.txn.StepIndex = 0
		if b.obs != nil {
			b.obs.Restarted(e.txn, b.clk.Now())
		}
		b.wakeCommit(e.txn) // its released locks may unblock others
		b.restartAfterDelay(e)
	default:
		panic(fmt.Sprintf("live: unexpected request decision %v", out.Decision))
	}
}

func (b *Backend) beginWait(e *texec) {
	if !b.ob.Enabled() || e.waitSpan != 0 {
		return
	}
	e.waitSince = b.clk.Now()
	e.waitSpan = b.ob.Begin(b.spanKinds.LockWait, e.txn.ID, -1,
		e.txn.StepIndex, e.txnSpan, e.waitSince)
}

func (b *Backend) endWait(e *texec) {
	if e.waitSpan == 0 {
		return
	}
	now := b.clk.Now()
	b.ob.End(e.waitSpan, now)
	d := now - e.waitSince
	if d < 0 {
		d = 0
	}
	b.obsLockWait.Observe(d.Milliseconds())
	e.waitSpan = 0
}

// executeStep dispatches the granted step as DD cohorts to the file's
// nodes. The per-node inbox is sized for the whole batch, so these sends
// never block.
func (b *Backend) executeStep(e *texec) {
	st := e.txn.CurrentStep()
	run := &liveRun{e: e}
	e.run = run
	nodes := b.place.Nodes(st.File)
	run.pending = len(nodes)
	rows := int(st.Cost*float64(b.cfg.RowsPerObject)/float64(b.cfg.DD) + 0.5)
	if rows < 1 {
		rows = 1
	}
	for _, node := range nodes {
		b.dpns[node].in <- &liveCohort{
			run: run, txn: e.txn.ID, file: st.File,
			mode: st.LockMode, write: st.Write, rows: rows,
		}
	}
}

func (b *Backend) handleCompletion(c completion) {
	if b.ob.Enabled() {
		sp := b.ob.Begin(b.spanKinds.Cohort, c.run.e.txn.ID, c.node,
			c.run.e.txn.StepIndex, c.run.e.stepSpan, c.start)
		b.ob.End(sp, c.end)
	}
	b.checksum += c.sum
	c.run.pending--
	if c.run.pending == 0 {
		b.jobs = append(b.jobs, liveJob{op: opStepDone, e: c.run.e, run: c.run})
	}
}

func (b *Backend) processStepDone(run *liveRun) {
	e := run.e
	e.run = nil
	if e.stepSpan != 0 {
		b.ob.End(e.stepSpan, b.clk.Now())
		e.stepSpan = 0
	}
	b.met.StepExecuted()
	step := e.txn.StepIndex
	e.txn.StepIndex++
	if b.obs != nil {
		b.obs.StepDone(e.txn, step, b.clk.Now())
	}
	b.nextStep(e)
}

func (b *Backend) processCommit(e *texec) {
	ok, _ := b.sch.Validate(e.txn)
	if !ok {
		// OPT certification failure: roll back and re-admit (restamps the
		// attempt), mirroring machine's contCommitFail.
		b.met.Restart()
		b.obsRestart.Inc()
		b.mark(b.strRestarts)
		e.txn.Restarts++
		if e.commitSpan != 0 {
			b.ob.End(e.commitSpan, b.clk.Now())
			e.commitSpan = 0
		}
		b.sch.Aborted(e.txn)
		e.txn.StepIndex = 0
		if b.obs != nil {
			b.obs.Restarted(e.txn, b.clk.Now())
		}
		b.restartAfterDelay(e)
		return
	}
	b.sch.Committed(e.txn)
	e.txn.Status = model.Committed
	b.active--
	b.completed++
	now := b.clk.Now()
	rt := now - e.txn.Arrival
	if rt < 0 {
		rt = 0
	}
	b.met.Completion(now, rt)
	if b.svc != nil {
		b.window--
		b.epochRTs = append(b.epochRTs, rt)
	}
	if b.strCommits != nil {
		b.strCommits.Add(now, 1)
		b.strRT.Observe(float64(rt) / 1e6) // sim.Time microseconds -> seconds
		b.strActive.Set(int64(b.active))
	}
	if b.ob.Enabled() {
		b.ob.End(e.commitSpan, now)
		e.commitSpan = 0
		b.ob.End(e.txnSpan, now)
		b.obsCommit.Inc()
		b.obsRetries.Observe(float64(e.txn.Restarts))
	}
	if b.obs != nil {
		b.obs.Committed(e.txn, now)
	}
	b.wakeCommit(e.txn)
}

// restartAfterDelay re-admits an aborted transaction, after the configured
// restart delay if one is set (machine.restartAfterDelay's contract on the
// wall clock: a timer hands the transaction back to the CN's select loop).
func (b *Backend) restartAfterDelay(e *texec) {
	if b.cfg.RestartDelay <= 0 {
		b.jobs = append(b.jobs, liveJob{op: opAdmit, e: e})
		return
	}
	b.restartPending++
	d := b.cfg.RestartDelay
	if b.cfg.RestartJitter {
		d = time.Duration(float64(d) * (0.5 + b.restartRNG.Float64()))
	}
	time.AfterFunc(d, func() { b.restartQ <- e })
}

// wakeCommit reconsiders everything a commit (or rollback release) can
// unblock, in machine.wakeCommit's order: requests blocked on the released
// files (ascending file order), every policy-delayed request, then the
// pending admissions FIFO.
func (b *Backend) wakeCommit(t *model.Txn) {
	files, _ := t.LockNeedSorted()
	for _, f := range files {
		list := b.blocked[f]
		if len(list) == 0 {
			continue
		}
		delete(b.blocked, f)
		for _, e := range list {
			b.jobs = append(b.jobs, liveJob{op: opRequest, e: e})
		}
	}
	b.wakeDelayed()
	if len(b.admitQ) > 0 {
		q := b.admitQ
		b.admitQ = nil
		for _, e := range q {
			b.jobs = append(b.jobs, liveJob{op: opAdmit, e: e})
		}
	}
}

// wakeDelayed resubmits every policy-delayed request.
func (b *Backend) wakeDelayed() {
	if len(b.delayed) == 0 {
		return
	}
	q := b.delayed
	b.delayed = nil
	for _, e := range q {
		b.jobs = append(b.jobs, liveJob{op: opRequest, e: e})
	}
}
