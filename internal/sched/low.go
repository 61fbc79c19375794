package sched

import (
	"math"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/pool"
	"batchsched/internal/sim"
	"batchsched/internal/wtpg"
)

// low is the Locally-Optimized WTPG scheduler (paper Figs. 5 and 7;
// "K-conflict WTPG" in the authors' earlier work). Instead of GOW's global
// chain-form constraint it bounds each access's conflicting-declaration set
// to K and grants a lock request q only when its contention estimate E(q) is
// no worse than the estimate E(p) of every conflicting declaration p — a
// local, present-state optimization that admits more transactions when
// batches update a hot set.
type low struct {
	p     Params
	locks *lock.Table
	graph *wtpg.Graph
	w0    wtpg.T0Weight
	name  string

	// audit, when set, records every lock-request decision with C(q) and
	// the E(q)/E(p) estimates the grant test compared; auditCands and
	// auditEPs are the entry's scratch (Record copies them).
	audit      *obs.Audit
	auditCands []int64
	auditEPs   []float64

	// Parallel decision engine (parallel.go): the injected pool lane,
	// per-worker overlay arenas, the per-decision frozen base, and the job
	// table of one fan-out (evalRes[0] = E(q), evalRes[i+1] = E(p_i)).
	lane      *pool.Lane
	ovl       []*wtpg.Overlay
	base      wtpg.EvalBase
	evalTxns  []*model.Txn
	evalModes []model.Mode
	evalRes   []float64
	evalFile  model.FileID

	// screen caches monotone admission rejections from PrescreenAdmits;
	// screenTxns/screenRej are its fan-out job table.
	screen     map[int64]bool
	screenTxns []*model.Txn
	screenRej  []bool

	// confs is Request's C(q) scratch and seed Admit's orientation scratch
	// (sequential callers only).
	confs []wtpg.Decl
	seed  [][2]int64
}

// NewLOW returns a Locally-Optimized WTPG scheduler with conflict bound p.K.
func NewLOW(p Params) Scheduler {
	if p.K < 0 {
		p.K = 0
	}
	return &low{p: p, locks: lock.NewTable(), graph: wtpg.New(),
		w0: wtpg.RemainingDemand, name: "LOW"}
}

// NewLOWLB returns the load-balancing extension of LOW the paper's
// conclusion names as further work ("improve these new schedulers for
// resource-level load-balancing"): the T0 weights of the WTPG scale each
// remaining step's declared demand by the current congestion of the nodes
// that will execute it, so E(q) estimates remaining *time* rather than
// remaining demand and grants steer work toward idle nodes. The machine
// injects the congestion probe via SetLoadProbe.
func NewLOWLB(p Params) Scheduler {
	if p.K < 0 {
		p.K = 0
	}
	s := &low{p: p, locks: lock.NewTable(), graph: wtpg.New(), name: "LOW-LB"}
	s.w0 = wtpg.RemainingDemand // until a probe is injected
	return s
}

// LoadAware is implemented by schedulers that consume resource-level load
// information; the machine injects a probe returning the mean number of
// resident cohorts on the nodes holding a file's partitions.
type LoadAware interface {
	SetLoadProbe(func(f model.FileID) float64)
}

// SetLoadProbe implements LoadAware for the LOW-LB variant (a no-op for
// plain LOW).
func (s *low) SetLoadProbe(probe func(f model.FileID) float64) {
	if s.name != "LOW-LB" || probe == nil {
		return
	}
	s.w0 = func(t *model.Txn) float64 {
		var sum float64
		for i := t.StepIndex; i < len(t.Steps); i++ {
			st := t.Steps[i]
			sum += st.DeclaredCost * (1 + probe(st.File))
		}
		return sum
	}
}

func (s *low) Name() string { return s.name }

// SetAudit implements Audited.
func (s *low) SetAudit(a *obs.Audit) { s.audit = a }

// record appends one audited lock-request decision. Deadlocked estimates
// evaluate to +Inf, which JSON cannot represent, so they are recorded as -1
// (E(q) additionally gets an explanatory note).
func (s *low) record(t *model.Txn, d Decision, cands []int64, eq float64, haveEQ bool, eps []float64, note string) {
	if s.audit == nil {
		return
	}
	for i, ep := range eps {
		if math.IsInf(ep, 1) {
			eps[i] = -1
		}
	}
	st := t.CurrentStep()
	e := obs.AuditEntry{
		Scheduler: s.name, Txn: t.ID,
		File: int(st.File), Mode: st.LockMode.String(),
		Decision: d.String(), Candidates: cands, EPs: eps, Note: note,
	}
	if haveEQ {
		e.EQ = eq
		if math.IsInf(eq, 1) {
			e.EQ = -1
			e.Note = "deadlock: E(q)=+Inf"
		}
	}
	s.audit.Record(&e)
	// Keep the scratch the caller grew for the next decision.
	if cap(cands) > cap(s.auditCands) {
		s.auditCands = cands[:0]
	}
	if cap(eps) > cap(s.auditEPs) {
		s.auditEPs = eps[:0]
	}
}

// Admit starts t only when doing so keeps every conflicting-declaration set
// within the bound K: for each file t declares, both t's own conflict set
// on that file and the conflict sets of the transactions it joins must stay
// at size <= K.
func (s *low) Admit(t *model.Txn) (bool, sim.Time) {
	if s.screen[t.ID] {
		// Cached monotone rejection from the epoch's prescreen: the graph
		// has only grown since, so the full test would reject too, at the
		// same (zero) CPU charge.
		return false, 0
	}
	if s.admitBlocked(t) {
		return false, 0
	}
	s.graph.Add(t)
	s.seed = seedHolderOrder(s.seed, s.graph, s.locks, t)
	return true, 0
}

// admitBlocked is the K-bound admission test, read-only on the graph: t is
// refused when some file's conflicting-declaration set — t's own, or that of
// a transaction t would join — would exceed K. t is not in the graph, so
// every set size follows from the file's declarer counts: it builds no
// lists and is safe to run concurrently (the prescreen fan-out).
func (s *low) admitBlocked(t *model.Txn) bool {
	k := s.p.K
	files, modes := t.LockNeedSorted()
	for i, f := range files {
		n, nx := s.graph.DeclCounts(f)
		// t's own set: every declarer when t writes f, the X declarers when
		// it reads.
		own := nx
		if modes[i] == model.X {
			own = n
		}
		if own > k {
			return true
		}
		// Each member u of t's set gains t. An X declarer conflicts with the
		// other n-1 declarers, so with t its set has n members, and it is in
		// t's set whatever t's mode; an S declarer conflicts with the nx X
		// declarers and is in t's set only when t writes f.
		if nx > 0 && n > k {
			return true
		}
		if modes[i] == model.X && n > nx && nx+1 > k {
			return true
		}
	}
	return false
}

// DecisionWorkers implements DecisionParallel.
func (s *low) DecisionWorkers() int { return s.p.DecisionWorkers }

// SetDecisionLane implements DecisionParallel.
func (s *low) SetDecisionLane(l *pool.Lane) { s.lane = l }

// PrescreenAdmits implements AdmitScreener: run the admission test for every
// candidate concurrently against the sweep-start graph and cache the
// rejections for Admit. Rejections are monotone while the graph only grows;
// Committed/Aborted (the only removal paths) drop the cache.
func (s *low) PrescreenAdmits(ts []*model.Txn) {
	clear(s.screen)
	if w := decisionWorkers(s.p, s.lane); w > 1 && len(ts) > 1 {
		s.screenTxns = append(s.screenTxns[:0], ts...)
		if cap(s.screenRej) < len(ts) {
			s.screenRej = make([]bool, len(ts))
		} else {
			s.screenRej = s.screenRej[:len(ts)] // workers write every index
		}
		s.lane.Run((*lowScreenRun)(s), len(ts), w)
		if s.screen == nil {
			s.screen = make(map[int64]bool)
		}
		for i, t := range ts {
			if s.screenRej[i] {
				s.screen[t.ID] = true
			}
		}
	}
}

// lowScreenRun is low's prescreen fan-out entry point (pool.Runner).
type lowScreenRun low

func (r *lowScreenRun) RunTask(worker, i int) {
	s := (*low)(r)
	s.screenRej[i] = s.admitBlocked(s.screenTxns[i])
}

// lowEvalRun is low's E(q)/E(p) fan-out entry point (pool.Runner): job i
// scores evalTxns[i] with worker w's private overlay against the frozen
// base.
type lowEvalRun low

func (r *lowEvalRun) RunTask(worker, i int) {
	s := (*low)(r)
	if s.ovl[worker] == nil {
		s.ovl[worker] = new(wtpg.Overlay)
	}
	s.evalRes[i] = s.ovl[worker].Evaluate(&s.base, s.evalTxns[i], s.evalFile, s.evalModes[i])
}

func (s *low) Request(t *model.Txn) Outcome {
	if holdsSufficient(s.locks, t) {
		s.record(t, Grant, nil, 0, false, nil, "holds sufficient lock")
		return Outcome{Decision: Grant}
	}
	st := t.CurrentStep()
	// Phase 1: blocked by a current holder.
	if !s.locks.CanGrant(t.ID, st.File, st.LockMode) {
		s.record(t, Block, nil, 0, false, nil, "conflicting lock holder")
		return Outcome{Decision: Block}
	}
	if decisionWorkers(s.p, s.lane) > 1 {
		return s.requestParallel(t, st)
	}
	// Phase 2: E(q); a deadlock evaluates to +Inf and q is delayed.
	cpu := s.p.KWTPGTime
	eq := wtpg.Evaluate(s.graph, t, st.File, st.LockMode, s.w0)
	if math.IsInf(eq, 1) {
		s.record(t, Delay, nil, eq, true, nil, "")
		return Outcome{Decision: Delay, CPU: cpu}
	}
	// Phase 3: q wins only if E(q) <= E(p) for every conflicting
	// declaration p in C(q). Each E(p) costs another kwtpgtime.
	cands, eps := s.auditCands[:0], s.auditEPs[:0]
	s.confs = conflictersOn(s.confs[:0], s.graph, t, st.File, st.LockMode)
	for _, u := range s.confs {
		cpu += s.p.KWTPGTime
		ep := wtpg.Evaluate(s.graph, u.Txn, st.File, u.Mode, s.w0)
		if s.audit != nil {
			cands = append(cands, u.Txn.ID)
			eps = append(eps, ep)
		}
		if eq > ep {
			s.record(t, Delay, cands, eq, true, eps, "E(q) > E(p)")
			return Outcome{Decision: Delay, CPU: cpu}
		}
	}
	// Phase 4: grant and fix the newly determined precedence edges.
	if err := s.graph.Grant(t, st.File, st.LockMode); err != nil {
		s.record(t, Delay, cands, eq, true, eps, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.locks.Grant(t.ID, st.File, st.LockMode)
	s.record(t, Grant, cands, eq, true, eps, "")
	return Outcome{Decision: Grant, CPU: cpu}
}

// requestParallel is Phases 2–4 with E(q) and every E(p) scored concurrently
// through per-worker overlays, then the sequential decision walk replayed
// over the precomputed values: the same candidate order, the same early
// exit, the same per-candidate KWTPGTime charge up to and including the
// deciding comparison, the same audit entries. A candidate the sequential
// path would never have evaluated may be scored speculatively here; its
// value is simply never consulted, so outputs are unchanged.
func (s *low) requestParallel(t *model.Txn, st model.Step) Outcome {
	cpu := s.p.KWTPGTime
	s.confs = conflictersOn(s.confs[:0], s.graph, t, st.File, st.LockMode)
	s.evalTxns = append(s.evalTxns[:0], t)
	s.evalModes = append(s.evalModes[:0], st.LockMode)
	for _, u := range s.confs {
		s.evalTxns = append(s.evalTxns, u.Txn)
		s.evalModes = append(s.evalModes, u.Mode)
	}
	s.evalFile = st.File
	if n := len(s.evalTxns); cap(s.evalRes) < n {
		s.evalRes = make([]float64, n)
	} else {
		s.evalRes = s.evalRes[:n] // workers write every index
	}
	if nw := s.lane.Workers(); len(s.ovl) < nw {
		s.ovl = append(s.ovl, make([]*wtpg.Overlay, nw-len(s.ovl))...)
	}
	if err := s.graph.BuildEvalBase(s.w0, &s.base); err != nil {
		// A cyclic base graph is impossible after consistent grants, but the
		// sequential path would evaluate E(q) to +Inf; mirror it.
		s.record(t, Delay, nil, math.Inf(1), true, nil, "")
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.lane.Run((*lowEvalRun)(s), len(s.evalTxns), s.p.DecisionWorkers)
	if testCorruptEvalOrder != nil {
		testCorruptEvalOrder(s.evalRes)
	}
	eq := s.evalRes[0]
	if math.IsInf(eq, 1) {
		s.record(t, Delay, nil, eq, true, nil, "")
		return Outcome{Decision: Delay, CPU: cpu}
	}
	cands, eps := s.auditCands[:0], s.auditEPs[:0]
	for i, u := range s.confs {
		cpu += s.p.KWTPGTime
		ep := s.evalRes[i+1]
		if s.audit != nil {
			cands = append(cands, u.Txn.ID)
			eps = append(eps, ep)
		}
		if eq > ep {
			s.record(t, Delay, cands, eq, true, eps, "E(q) > E(p)")
			return Outcome{Decision: Delay, CPU: cpu}
		}
	}
	if err := s.graph.Grant(t, st.File, st.LockMode); err != nil {
		s.record(t, Delay, cands, eq, true, eps, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.locks.Grant(t.ID, st.File, st.LockMode)
	s.record(t, Grant, cands, eq, true, eps, "")
	return Outcome{Decision: Grant, CPU: cpu}
}

func (s *low) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }

func (s *low) Committed(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
	clear(s.screen) // removals invalidate cached monotone rejections
}

// Aborted removes the transaction's WTPG node (its precedence edges go with
// it) and releases its locks. LOW itself never aborts a transaction; this
// is the fault-induced rollback path.
func (s *low) Aborted(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
	clear(s.screen) // removals invalidate cached monotone rejections
}

// Locks exposes the lock table for invariant checks in tests.
func (s *low) Locks() *lock.Table { return s.locks }

// Graph exposes the WTPG for invariant checks in tests.
func (s *low) Graph() *wtpg.Graph { return s.graph }
