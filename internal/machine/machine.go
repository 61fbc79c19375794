package machine

import (
	"fmt"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/pool"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Generator produces the declared steps of successive transactions. It is
// implemented by package workload; the machine calls it once per arrival.
// An alias of engine.Generator, so workload generators feed every backend.
type Generator = engine.Generator

// Observer receives execution events, for history recording and invariant
// checks. An alias of engine.Observer: the same recorders plug into the
// simulator and the live backend.
type Observer = engine.Observer

// Machine is one execution backend (the virtual-clock simulator).
var _ engine.Backend = (*Machine)(nil)

// txnPhase is the lifecycle position of a transaction inside the machine.
type txnPhase int

const (
	phAtCN     txnPhase = iota // a CN job for it is queued or running
	phAdmit                    // waiting to be admitted
	phBlocked                  // waiting on a file's lock release
	phDelayed                  // policy-delayed lock request
	phRunning                  // cohorts executing at DPNs
	phFinished                 // committed (or shed/evicted in service mode)
	phQueued                   // in the service-mode admission queue
)

// exec is the runtime wrapper around one transaction.
type exec struct {
	txn          *model.Txn
	phase        txnPhase
	admitCharged bool
	admitted     bool
	class        admit.Class // service class (service mode only)
	run          *stepRun    // current step dispatch, while phRunning
	item         admit.Item  // admission-queue entry (service mode only)

	// Observability state (all zero when the observer is disabled): the
	// transaction's lifecycle span and its currently open phase spans.
	txnSpan    obs.SpanID
	admitSpan  obs.SpanID
	waitSpan   obs.SpanID
	stepSpan   obs.SpanID
	commitSpan obs.SpanID
	waitSince  sim.Time // start of the open lock-wait span
}

// Machine is one Shared-Nothing machine simulation run: engine, control
// node, DPNs, scheduler and workload wired together. Create with New, then
// call Run once.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	met   *metrics.Collector
	sch   sched.Scheduler
	gen   Generator
	place Placement
	cn    *controlNode
	dpns  []*dpn
	obs   Observer
	inj   *fault.Injector // nil on the failure-free path

	// ob is the observability layer; nil (the default) disables it, and
	// every hook below is nil-receiver safe so the disabled path costs
	// one pointer check and no allocation. The derived instruments are
	// nil exactly when ob is nil.
	ob          *obs.Observer
	spanKinds   obs.Lifecycle
	obsGrant    *obs.Counter
	obsBlock    *obs.Counter
	obsDelay    *obs.Counter
	obsRestart  *obs.Counter
	obsCommit   *obs.Counter
	obsLockWait *obs.Histogram
	obsReqCPU   *obs.Histogram
	obsRetries  *obs.Histogram

	arrivalRNG  *sim.RNG
	workloadRNG *sim.RNG
	restartRNG  *sim.RNG
	arrivals    workload.Arrivals // nil when no arrival process is configured

	// Service-mode state (service.go); svc is nil outside service mode.
	svc        *admit.Service
	classRNG   *sim.RNG
	window     int // popped from the queue, not yet committed or evicted
	epochNum   int
	epochStart sim.Time
	epochPrev  admit.Stats
	epochRTs   []sim.Time
	epochHook  func(admit.EpochStats)
	onEpoch    sim.Handler

	nextID    int64
	active    int // admitted, uncommitted (machine-level MPL accounting)
	completed int
	admitQ    []*exec
	blocked   map[model.FileID][]*exec
	nblocked  int // requests parked in blocked, summed over files
	delayed   []*exec
	// admitSpare/delayedSpare double-buffer the wake queues: a wake-up swaps
	// the live queue for the (emptied) spare and iterates the old backing
	// array, so re-parks during the sweep cannot alias the slice being
	// iterated and neither side reallocates at steady state.
	admitSpare   []*exec
	delayedSpare []*exec

	// workPool backs the scheduler's decision fan-out when it asks for more
	// than one worker (sched.DecisionParallel; DESIGN.md §17). Its
	// goroutines start lazily on the first parallel decision, and Run and
	// RunClosed stop it on exit.
	workPool *pool.Pool

	// Service-mode batch-admission buffers (service.go): fillWindow pops the
	// epoch's batch here so AdmitScreener schedulers can prescreen it.
	fillBuf   []*exec
	screenBuf []*model.Txn
	shedBuf   []admit.Shed // Arrive/Expire shed lists, reused

	// Hot-path free lists (zero steady-state allocations per event): spent
	// stepRuns and their cohorts are recycled when a step completes cleanly,
	// committed execs when their transaction retires; fault-retired objects
	// are deliberately leaked to the GC (a stale timer may still reference
	// them). cohortSlab batch-allocates cohorts; nodesBuf backs
	// Placement.NodesInto.
	runPool    []*stepRun
	cohortPool []*cohort
	cohortSlab []cohort
	execPool   []*exec
	nodesBuf   []int

	// Pre-bound event handlers: recurring events carry their state in a
	// pointer payload instead of a per-event closure.
	onArrival    sim.Handler
	onDeliver    sim.PayloadHandler // arg: *cohort
	onStepReturn sim.PayloadHandler // arg: *stepRun
	onRetryAdmit sim.PayloadHandler // arg: *exec
	onTimeout    sim.PayloadHandler // arg: *stepRun
}

// New builds a machine. The scheduler must be fresh (one per run); rng
// seeds the arrival and workload streams.
func New(cfg Config, s sched.Scheduler, gen Generator, rng *sim.RNG) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("machine: nil scheduler")
	}
	eng := sim.NewEngine()
	met := metrics.NewCollector(cfg.NumNodes, cfg.Warmup)
	m := &Machine{
		cfg:         cfg,
		eng:         eng,
		met:         met,
		sch:         s,
		gen:         gen,
		place:       Placement{NumNodes: cfg.NumNodes, DD: cfg.DD},
		cn:          newControlNode(eng, met),
		arrivalRNG:  rng.Stream("arrivals"),
		workloadRNG: rng.Stream("workload"),
		restartRNG:  rng.Stream("restart"),
		blocked:     make(map[model.FileID][]*exec),
	}
	m.cn.m = m
	m.arrivals = cfg.Arrivals
	if m.arrivals == nil && cfg.ArrivalRate > 0 {
		m.arrivals = workload.Poisson{Rate: cfg.ArrivalRate}
	}
	if cfg.Service != nil {
		svc, err := admit.NewService(*cfg.Service)
		if err != nil {
			return nil, err
		}
		m.svc = svc
		m.classRNG = rng.Stream("class")
		// The window bound doubles as the machine MPL so the closed-path
		// admission guard agrees with the service accounting (Validate
		// required Config.MPL == 0; m.cfg is the machine's own copy).
		m.cfg.MPL = cfg.Service.MPL
		m.onEpoch = func(now sim.Time) { m.runEpoch(now) }
	}
	m.dpns = make([]*dpn, cfg.NumNodes)
	for i := range m.dpns {
		m.dpns[i] = newDPN(i, eng, met)
		m.dpns[i].complete = m.cohortFinished
	}
	m.onArrival = func(sim.Time) {
		steps := m.gen.Steps(m.workloadRNG)
		m.Submit(steps)
		m.scheduleNextArrival()
	}
	m.onDeliver = func(_ sim.Time, arg any) { m.deliverCohort(arg.(*cohort)) }
	m.onStepReturn = func(_ sim.Time, arg any) { m.stepReturn(arg.(*stepRun)) }
	m.onRetryAdmit = func(_ sim.Time, arg any) { m.tryAdmit(arg.(*exec)) }
	m.onTimeout = func(_ sim.Time, arg any) {
		run := arg.(*stepRun)
		if run.dead {
			return
		}
		m.stepTimeout(run)
	}
	if la, ok := s.(sched.LoadAware); ok {
		la.SetLoadProbe(m.fileLoad)
	}
	if dp, ok := s.(sched.DecisionParallel); ok && dp.DecisionWorkers() > 1 {
		m.workPool = pool.New("machine", dp.DecisionWorkers())
		dp.SetDecisionLane(m.workPool.Lane("decision"))
	}
	if err := m.wireFaults(rng); err != nil {
		return nil, err
	}
	return m, nil
}

// fileLoad reports the mean number of resident cohorts across the nodes
// holding f's partitions — the congestion probe for load-aware schedulers.
func (m *Machine) fileLoad(f model.FileID) float64 {
	m.nodesBuf = m.place.NodesInto(f, m.nodesBuf)
	total := 0
	for _, n := range m.nodesBuf {
		total += m.dpns[n].queueLen()
	}
	return float64(total) / float64(len(m.nodesBuf))
}

// newExec wraps a transaction, reusing a retired exec when one is pooled.
func (m *Machine) newExec(t *model.Txn) *exec {
	if n := len(m.execPool); n > 0 {
		e := m.execPool[n-1]
		m.execPool[n-1] = nil
		m.execPool = m.execPool[:n-1]
		*e = exec{txn: t}
		return e
	}
	return &exec{txn: t}
}

// newStepRun starts a dispatch attempt, reusing a cleanly-retired stepRun
// (and its cohorts slice) when one is pooled.
func (m *Machine) newStepRun(e *exec, home, attempt int) *stepRun {
	if n := len(m.runPool); n > 0 {
		r := m.runPool[n-1]
		m.runPool[n-1] = nil
		m.runPool = m.runPool[:n-1]
		*r = stepRun{e: e, home: home, attempt: attempt, cohorts: r.cohorts[:0]}
		return r
	}
	return &stepRun{e: e, home: home, attempt: attempt}
}

// newCohort takes a cohort off the free list, batch-allocating a fresh slab
// when it runs dry so steady-state dispatches never hit the allocator.
func (m *Machine) newCohort() *cohort {
	if n := len(m.cohortPool); n > 0 {
		c := m.cohortPool[n-1]
		m.cohortPool[n-1] = nil
		m.cohortPool = m.cohortPool[:n-1]
		return c
	}
	if len(m.cohortSlab) == 0 {
		m.cohortSlab = make([]cohort, 64)
	}
	c := &m.cohortSlab[0]
	m.cohortSlab = m.cohortSlab[1:]
	return c
}

// retireRun recycles a dispatch attempt that completed cleanly (stepDone).
// Such a run provably has no timer or in-flight event referencing it: retry
// timers are armed only when a message was lost, and a lost message always
// retires its attempt through the timeout path instead. Fault-retired runs
// are left to the GC.
func (m *Machine) retireRun(run *stepRun) {
	for i, c := range run.cohorts {
		run.cohorts[i] = nil
		*c = cohort{}
		m.cohortPool = append(m.cohortPool, c)
	}
	*run = stepRun{cohorts: run.cohorts[:0]}
	m.runPool = append(m.runPool, run)
}

// SetObserver installs an execution observer (history recorder etc.).
func (m *Machine) SetObserver(o Observer) { m.obs = o }

// SetObs attaches the virtual-time observability layer: spans over the
// transaction lifecycle, control-node jobs and DPN cohorts; counters,
// gauges and histograms in o's registry; and the scheduler decision audit
// where the scheduler supports it. Call before Run. A nil o is ignored —
// the layer stays disabled and the instrumented paths reduce to nil checks.
// Observation leaves the summary identical to an unobserved run: the
// sampling ticks are calendar events of their own, and the gauges read
// state without changing it. The DPN gauges compute what a ring replay
// would show; they replay (as the next arrival or probe would) only when a
// dead cohort is resident or a straggler-toggled boundary is due.
func (m *Machine) SetObs(o *obs.Observer) {
	if o == nil {
		return
	}
	m.ob = o
	m.spanKinds = o.LifecycleKinds()
	m.cn.ob = o
	for op, name := range cnOpNames {
		m.cn.opKinds[op] = o.Kind(name, "cn")
	}
	for _, d := range m.dpns {
		d.ob = o
		d.cohortKind = m.spanKinds.Cohort
	}
	m.obsGrant = o.Counter("grants")
	m.obsBlock = o.Counter("blocks")
	m.obsDelay = o.Counter("delays")
	m.obsRestart = o.Counter("restarts")
	m.obsCommit = o.Counter("commits")
	m.obsLockWait = o.Histogram("lock_wait_ms",
		[]float64{1, 10, 100, 1_000, 10_000, 60_000, 300_000})
	m.obsReqCPU = o.Histogram("request_cpu_ms",
		[]float64{0.5, 1, 2, 5, 10, 20, 50, 100})
	m.obsRetries = o.Histogram("restarts_per_txn",
		[]float64{0, 1, 2, 5, 10})
	hCNQ := o.Histogram("cn_queue_depth",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64})
	o.Gauge("cn_queue", func() float64 {
		v := float64(m.cn.queueLen())
		hCNQ.Observe(v)
		return v
	})
	o.Gauge("active_txns", func() float64 { return float64(m.active) })
	o.Gauge("waiting_txns", func() float64 { return float64(len(m.delayed) + m.nblocked) })
	o.Gauge("cn_busy_ms", func() float64 { return m.met.CNBusyTime().Milliseconds() })
	names := make([]string, 0, 2*len(m.dpns))
	for i := range m.dpns {
		names = append(names, fmt.Sprintf("dpn%d_queue", i), fmt.Sprintf("dpn%d_busy_ms", i))
	}
	o.Gauges(names, func(dst []float64) {
		for i, d := range m.dpns {
			n, busy := d.gauges()
			dst[2*i], dst[2*i+1] = float64(n), busy.Milliseconds()
		}
	})
	o.Audit().SetClock(m.eng.Now)
	if a, ok := m.sch.(sched.Audited); ok {
		a.SetAudit(o.Audit())
	}
}

// Engine exposes the simulation engine (for tests that drive time manually).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the current virtual time (engine.Clock).
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Submit injects a transaction at the current virtual time (used by tests
// and by runs with ArrivalRate == 0). Steps are used as-is.
func (m *Machine) Submit(steps []model.Step) *model.Txn {
	m.nextID++
	t := model.NewTxn(m.nextID, m.eng.Now(), steps)
	m.arrive(t)
	return t
}

// Run executes the configured workload for cfg.Duration and returns the
// metrics summary.
func (m *Machine) Run() metrics.Summary {
	if m.inj != nil {
		m.inj.Start()
	}
	if m.arrivals != nil {
		if m.gen == nil {
			panic("machine: an arrival process needs a Generator")
		}
		m.scheduleNextArrival()
	}
	if m.svc != nil {
		m.eng.Schedule(m.svc.Policy().Epoch, m.onEpoch)
	}
	m.ob.StartSampling(m.eng)
	defer m.stopPool()
	m.eng.RunUntil(m.cfg.Duration)
	// Fast-forward nodes may still hold an epoch tail whose quantum events
	// the stepped engine would have fired at (or before) the horizon; replay
	// it so busy accounting matches before anything is summarized.
	for _, d := range m.dpns {
		d.flush(m.cfg.Duration)
	}
	m.ob.Finish(m.eng.Now())
	return m.met.Summarize(m.cfg.Duration)
}

// RunClosed executes a closed batch: every transaction must already have
// been Submitted (ArrivalRate is ignored). Events are dispatched until the
// whole batch commits — or the calendar drains or the horizon passes,
// whichever is first — and the summary window is the makespan, so TPS is
// batch throughput. This is the simulator side of sim-vs-live differential
// runs, which are all closed batches (the live backend has no arrival
// process).
func (m *Machine) RunClosed(horizon sim.Time) metrics.Summary {
	if m.inj != nil {
		m.inj.Start()
	}
	m.ob.StartSampling(m.eng)
	defer m.stopPool()
	for m.InFlight() > 0 && m.eng.Step(horizon) {
	}
	now := m.eng.Now()
	for _, d := range m.dpns {
		d.flush(now)
	}
	m.ob.Finish(now)
	return m.met.Summarize(now)
}

// stopPool shuts the decision workers down, so a finished run leaves no
// goroutines behind.
func (m *Machine) stopPool() {
	if m.workPool != nil {
		m.workPool.Stop()
	}
}

func (m *Machine) scheduleNextArrival() {
	gap := m.arrivals.Next(m.eng.Now(), m.arrivalRNG)
	m.eng.Schedule(gap, m.onArrival)
}

func (m *Machine) arrive(t *model.Txn) {
	m.met.Arrival(m.eng.Now())
	e := m.newExec(t)
	if m.ob.Enabled() {
		e.txnSpan = m.ob.Begin(m.spanKinds.Txn, t.ID, -1, -1, 0, m.eng.Now())
	}
	if m.svc != nil {
		m.svcArrive(e)
		return
	}
	m.tryAdmit(e)
}

// tryAdmit queues an admission attempt on the CN. Failed attempts park the
// transaction; it is retried after the next commit.
func (m *Machine) tryAdmit(e *exec) {
	e.phase = phAtCN
	m.cn.submit(cnJob{op: opAdmit, e: e})
}

// admitBody is the opAdmit job body.
func (m *Machine) admitBody(e *exec) (sim.Time, cnCont) {
	if m.cfg.MPL > 0 && m.active >= m.cfg.MPL && !e.admitted {
		return 0, cnCont{op: contPark, e: e}
	}
	ok, cpu := m.sch.Admit(e.txn)
	if e.admitCharged && !m.cfg.ChargeRetryCPU {
		// Retried admission tests are batch-evaluated for free (see
		// DESIGN.md substitution notes); only the first attempt pays.
		cpu = 0
	}
	e.admitCharged = true
	if !ok {
		m.met.AdmissionReject()
		e.txn.AdmissionTries++
		return cpu, cnCont{op: contPark, e: e}
	}
	if !e.admitted {
		e.admitted = true
		m.active++
	}
	e.txn.Status = model.Active
	return cpu + m.cfg.SOTTime, cnCont{op: contStart, e: e}
}

func (m *Machine) parkAdmit(e *exec) {
	e.phase = phAdmit
	if m.ob.Enabled() && e.admitSpan == 0 {
		e.admitSpan = m.ob.Begin(m.spanKinds.AdmitWait, e.txn.ID, -1, -1, e.txnSpan, m.eng.Now())
	}
	m.admitQ = append(m.admitQ, e)
}

// nextStep routes the transaction to its next lock request or to commit.
func (m *Machine) nextStep(e *exec) {
	if e.txn.Done() {
		m.commit(e)
		return
	}
	m.requestLock(e)
}

func (m *Machine) requestLock(e *exec) {
	e.phase = phAtCN
	m.cn.submit(cnJob{op: opRequest, e: e})
}

// requestBody is the opRequest job body. The continuations re-read the
// current step where needed: the CN is serial, so no other job body or
// continuation (the only mutators of StepIndex) can run in between.
func (m *Machine) requestBody(e *exec) (sim.Time, cnCont) {
	out := m.sch.Request(e.txn)
	m.obsReqCPU.Observe(out.CPU.Milliseconds())
	switch out.Decision {
	case sched.Grant:
		m.met.Granted()
		m.obsGrant.Inc()
		return out.CPU, cnCont{op: contExec, e: e}
	case sched.Block:
		m.met.Block()
		m.obsBlock.Inc()
		return out.CPU, cnCont{op: contBlock, e: e}
	case sched.Delay:
		m.met.Delay()
		m.obsDelay.Inc()
		return out.CPU, cnCont{op: contDelay, e: e}
	case sched.Abort:
		// Deadlock victim (strict 2PL): roll back, release, restart.
		m.met.Restart()
		m.obsRestart.Inc()
		e.txn.Restarts++
		return out.CPU, cnCont{op: contAbort, e: e}
	default:
		panic(fmt.Sprintf("machine: unexpected request decision %v", out.Decision))
	}
}

// cnBody dispatches an op-coded control-node job body.
func (m *Machine) cnBody(j cnJob) (sim.Time, cnCont) {
	switch j.op {
	case opAdmit:
		return m.admitBody(j.e)
	case opRequest:
		return m.requestBody(j.e)
	case opDispatch:
		return m.cfg.MsgTime, cnCont{op: contDispatch, e: j.e, attempt: j.attempt}
	case opStepDone:
		return m.cfg.MsgTime, cnCont{op: contStepDone, e: j.e, run: j.run}
	case opCommit:
		return m.commitBody(j.e)
	default:
		panic(fmt.Sprintf("machine: unknown CN op %d", j.op))
	}
}

// cnFinish dispatches an op-coded job continuation.
func (m *Machine) cnFinish(c cnCont) {
	switch c.op {
	case contPark:
		m.parkAdmit(c.e)
	case contStart:
		if c.e.admitSpan != 0 {
			m.ob.End(c.e.admitSpan, m.eng.Now())
			c.e.admitSpan = 0
		}
		m.nextStep(c.e)
	case contExec:
		e := c.e
		m.endWait(e)
		if m.ob.Enabled() {
			e.stepSpan = m.ob.Begin(m.spanKinds.Execute, e.txn.ID, -1,
				e.txn.StepIndex, e.txnSpan, m.eng.Now())
		}
		m.executeStep(e)
		if !m.cfg.NoWakeOnGrant {
			m.wakeDelayed() // a grant changes the scheduling state
		}
	case contBlock:
		e := c.e
		e.phase = phBlocked
		m.beginWait(e)
		file := e.txn.CurrentStep().File
		m.blocked[file] = append(m.blocked[file], e)
		m.nblocked++
	case contDelay:
		c.e.phase = phDelayed
		m.beginWait(c.e)
		m.delayed = append(m.delayed, c.e)
	case contAbort:
		e := c.e
		m.endWait(e)
		m.sch.Aborted(e.txn)
		e.txn.StepIndex = 0
		if m.obs != nil {
			m.obs.Restarted(e.txn, m.eng.Now())
		}
		m.wakeCommit(e.txn) // its released locks may unblock others
		m.restartAfterDelay(e)
	case contDispatch:
		m.placeStep(c.e, c.attempt)
	case contStepDone:
		m.stepDone(c.run)
	case contCommitOK:
		m.commitFinish(c.e)
	case contCommitFail:
		e := c.e
		if e.commitSpan != 0 {
			m.ob.End(e.commitSpan, m.eng.Now())
			e.commitSpan = 0
		}
		m.sch.Aborted(e.txn)
		e.txn.StepIndex = 0
		if m.obs != nil {
			m.obs.Restarted(e.txn, m.eng.Now())
		}
		m.restartAfterDelay(e) // re-admission restamps the attempt
	default:
		panic(fmt.Sprintf("machine: unknown CN continuation %d", c.op))
	}
}

// beginWait opens the transaction's lock-wait span (blocked or
// policy-delayed both count as waiting for a lock); reentrant for a
// transaction that bounces between the two without a grant in between.
func (m *Machine) beginWait(e *exec) {
	if !m.ob.Enabled() || e.waitSpan != 0 {
		return
	}
	e.waitSince = m.eng.Now()
	e.waitSpan = m.ob.Begin(m.spanKinds.LockWait, e.txn.ID, -1,
		e.txn.StepIndex, e.txnSpan, e.waitSince)
}

// endWait closes the open lock-wait span (if any) and feeds the lock-wait
// histogram with its length.
func (m *Machine) endWait(e *exec) {
	if e.waitSpan == 0 {
		return
	}
	now := m.eng.Now()
	m.ob.End(e.waitSpan, now)
	m.obsLockWait.Observe((now - e.waitSince).Milliseconds())
	e.waitSpan = 0
}

// executeStep runs the granted step: the CN sends the transaction to the
// file's home node (one message), the step runs as DD cohorts of C/DD
// objects round-robin-interleaved at their nodes, and when the last cohort
// finishes the transaction returns to the CN (one message).
func (m *Machine) executeStep(e *exec) { m.dispatchStep(e, 0) }

// dispatchStep is one dispatch attempt of the current step (attempt > 0
// after message-timeout retries). With faults enabled, the request message
// may be lost, deliveries pick up injected latency, and a crashed home or
// partition node aborts the transaction; the failure-free path schedules
// exactly the same events as before the fault subsystem existed.
func (m *Machine) dispatchStep(e *exec, attempt int) {
	m.cn.submit(cnJob{op: opDispatch, e: e, attempt: attempt})
}

// placeStep is the contDispatch continuation: the CN send is paid, the step
// becomes cohorts on its nodes.
func (m *Machine) placeStep(e *exec, attempt int) {
	st := e.txn.CurrentStep()
	e.phase = phRunning
	run := m.newStepRun(e, m.place.Home(st.File), attempt)
	e.run = run
	if m.inj != nil && m.inj.MsgLost() {
		// The CN->DPN request vanished; the retry timer is the only way
		// forward.
		m.met.MsgLost()
		m.faultEvent("msgloss", run.home)
		m.armTimeout(run)
		return
	}
	m.nodesBuf = m.place.NodesInto(st.File, m.nodesBuf)
	service := sim.Time(float64(m.cfg.ObjTime) * st.Cost / float64(m.cfg.DD))
	quantum := m.cfg.ObjTime / sim.Time(m.cfg.DD)
	if m.cfg.RunToCompletion {
		// Ablation: FCFS cohort service — one quantum covers the whole
		// scan.
		quantum = service
		if quantum <= 0 {
			quantum = 1
		}
	}
	run.pending = len(m.nodesBuf)
	for _, n := range m.nodesBuf {
		c := m.newCohort()
		*c = cohort{remaining: service, quantum: quantum, run: run, node: m.dpns[n]}
		run.cohorts = append(run.cohorts, c)
		m.eng.SchedulePayload(m.msgDelay(), m.onDeliver, c)
	}
}

// deliverCohort lands one cohort on its data-processing node. A delivery to
// a down node means the step cannot proceed: the CN aborts the transaction
// (in the real machine the commit protocol detects the dead participant).
func (m *Machine) deliverCohort(c *cohort) {
	if c.run.dead {
		return
	}
	if c.node.down {
		m.faultEvent("msgloss", c.node.id)
		m.abortRun(c.run, "crash")
		return
	}
	c.node.add(c)
}

// cohortFinished is the DPN's completion callback for machine-owned cohorts.
func (m *Machine) cohortFinished(c *cohort) { m.cohortDone(c.run) }

// cohortDone counts down the attempt's cohorts; when the last finishes the
// transaction flows back to the CN after the network delay and one receive
// message (which may itself be lost).
func (m *Machine) cohortDone(run *stepRun) {
	if run.dead {
		return
	}
	run.pending--
	if run.pending > 0 {
		return
	}
	m.eng.SchedulePayload(m.msgDelay(), m.onStepReturn, run)
}

// stepReturn receives the last cohort's completion back at the CN.
func (m *Machine) stepReturn(run *stepRun) {
	if run.dead {
		return
	}
	if m.inj != nil && m.inj.MsgLost() {
		// The DPN->CN completion reply vanished; the CN will time out and
		// re-execute the step.
		m.met.MsgLost()
		m.faultEvent("msgloss", run.home)
		m.armTimeout(run)
		return
	}
	m.cn.submit(cnJob{op: opStepDone, e: run.e, run: run})
}

// stepDone is the contStepDone continuation: the CN receive is paid, the
// transaction advances to its next step (or commit).
func (m *Machine) stepDone(run *stepRun) {
	if run.dead {
		return
	}
	e := run.e
	e.run = nil
	m.retireRun(run)
	if e.stepSpan != 0 {
		m.ob.End(e.stepSpan, m.eng.Now())
		e.stepSpan = 0
	}
	m.met.StepExecuted()
	step := e.txn.StepIndex
	e.txn.StepIndex++
	if m.obs != nil {
		m.obs.StepDone(e.txn, step, m.eng.Now())
	}
	m.nextStep(e)
}

// commit coordinates two-phase commitment: validation (OPT certification),
// then commit CPU, release, and a system-wide wake-up.
func (m *Machine) commit(e *exec) {
	e.phase = phAtCN
	if m.ob.Enabled() {
		e.commitSpan = m.ob.Begin(m.spanKinds.Commit, e.txn.ID, -1, -1,
			e.txnSpan, m.eng.Now())
	}
	m.cn.submit(cnJob{op: opCommit, e: e})
}

// commitBody is the opCommit job body: validation decides between the
// commit and the restart continuation.
func (m *Machine) commitBody(e *exec) (sim.Time, cnCont) {
	ok, vcpu := m.sch.Validate(e.txn)
	if !ok {
		m.met.Restart()
		m.obsRestart.Inc()
		e.txn.Restarts++
		return vcpu, cnCont{op: contCommitFail, e: e}
	}
	return vcpu + m.cfg.COTTime, cnCont{op: contCommitOK, e: e}
}

// commitFinish is the contCommitOK continuation.
func (m *Machine) commitFinish(e *exec) {
	m.sch.Committed(e.txn)
	e.txn.Status = model.Committed
	e.phase = phFinished
	m.active--
	m.completed++
	now := m.eng.Now()
	m.met.Completion(now, now-e.txn.Arrival)
	if m.svc != nil {
		m.window--
		m.epochRTs = append(m.epochRTs, now-e.txn.Arrival)
	}
	if m.ob.Enabled() {
		m.ob.End(e.commitSpan, now)
		e.commitSpan = 0
		m.ob.End(e.txnSpan, now)
		m.obsCommit.Inc()
		m.obsRetries.Observe(float64(e.txn.Restarts))
	}
	if m.obs != nil {
		m.obs.Committed(e.txn, now)
	}
	m.wakeCommit(e.txn)
	// The exec is fully retired (no queue, timer or event references a
	// committed transaction's wrapper) — recycle it for a future arrival.
	m.execPool = append(m.execPool, e)
}

// restartAfterDelay re-admits an aborted transaction, after the configured
// restart delay if one is set.
func (m *Machine) restartAfterDelay(e *exec) {
	if m.cfg.RestartDelay <= 0 {
		m.tryAdmit(e)
		return
	}
	e.phase = phAdmit
	d := m.cfg.RestartDelay
	if m.cfg.RestartJitter {
		d = sim.Time(float64(d) * (0.5 + m.restartRNG.Float64()))
		if d < 1 {
			d = 1
		}
	}
	m.eng.SchedulePayload(d, m.onRetryAdmit, e)
}

// wakeCommit reconsiders everything a commit can unblock: requests blocked
// on the released files, every policy-delayed request, and the pending
// admissions (in FIFO order).
func (m *Machine) wakeCommit(t *model.Txn) {
	files, _ := t.LockNeedSorted()
	for _, f := range files {
		list := m.blocked[f]
		if len(list) == 0 {
			continue
		}
		// Keep the entry's backing array: re-blocks on this file reuse it
		// (requestLock only queues a CN job, so nothing re-blocks while the
		// old list is being walked).
		m.blocked[f] = list[:0]
		m.nblocked -= len(list)
		for i, e := range list {
			list[i] = nil
			m.requestLock(e)
		}
	}
	m.wakeDelayed()
	if len(m.admitQ) > 0 {
		q := m.admitQ
		m.admitQ = m.admitSpare[:0]
		for i, e := range q {
			q[i] = nil
			m.tryAdmit(e)
		}
		m.admitSpare = q[:0]
	}
}

// wakeDelayed resubmits every policy-delayed request.
func (m *Machine) wakeDelayed() {
	if len(m.delayed) == 0 {
		return
	}
	q := m.delayed
	m.delayed = m.delayedSpare[:0]
	for i, e := range q {
		q[i] = nil
		m.requestLock(e)
	}
	m.delayedSpare = q[:0]
}

// InFlight reports how many submitted transactions have not yet committed
// (including pending admissions).
func (m *Machine) InFlight() int {
	return int(m.nextID) - m.completed
}

// DebugDump prints the waiting structures (debugging aid for stall
// diagnosis; not part of the public API).
func (m *Machine) DebugDump() {
	fmt.Printf("debug: admitQ=%d delayed=%d active=%d\n", len(m.admitQ), len(m.delayed), m.active)
	for f, list := range m.blocked {
		if len(list) == 0 {
			continue
		}
		ids := make([]int64, len(list))
		for i, e := range list {
			ids[i] = e.txn.ID
		}
		fmt.Printf("debug: blocked on file %d: %v\n", f, ids)
	}
	for i, d := range m.dpns {
		if d.queueLen() > 0 {
			fmt.Printf("debug: dpn %d ring=%d\n", i, d.queueLen())
		}
	}
	fmt.Printf("debug: cn queue=%d\n", m.cn.queueLen())
}
