package sched

import (
	"fmt"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/pool"
	"batchsched/internal/sim"
	"batchsched/internal/wtpg"
)

// gow is the Globally-Optimized WTPG scheduler (paper Fig. 4; "Chain-WTPG"
// in the authors' earlier work). It keeps the WTPG in chain form — each
// transaction conflicts only with adjacent nodes — which makes the full
// serializable order W with the shortest critical path computable in
// polynomial time. Lock requests are granted only when they are consistent
// with W, so chains of blocking are avoided globally.
type gow struct {
	p     Params
	locks *lock.Table
	graph *wtpg.Graph
	plan  wtpg.Plan // reused across requests (Phase 2 scratch)

	// audit, when set, records every lock-request decision; lastCP is the
	// critical path |W| of the previous audited plan (for the delta), and
	// auditCands the entry's candidate scratch (Record copies it).
	audit      *obs.Audit
	lastCP     float64
	auditCands []int64

	// Parallel decision engine (parallel.go): the injected pool lane fans
	// Phase 2's per-component chain optimization out; screen caches
	// monotone admission rejections from PrescreenAdmits, with screenTxns/
	// screenRej/screenCk its fan-out job table and per-worker scratch.
	lane       *pool.Lane
	screen     map[int64]bool
	screenTxns []*model.Txn
	screenRej  []bool
	screenCk   []wtpg.AddCheck

	// pairs is Request's orientation scratch; seed is Admit's.
	pairs [][2]int64
	seed  [][2]int64
}

// NewGOW returns a Globally-Optimized WTPG scheduler.
func NewGOW(p Params) Scheduler {
	return &gow{p: p, locks: lock.NewTable(), graph: wtpg.New()}
}

func (s *gow) Name() string { return "GOW" }

// SetAudit implements Audited.
func (s *gow) SetAudit(a *obs.Audit) { s.audit = a }

// record appends one audited lock-request decision. pairs are the neighbor
// orientations the grant would determine (the candidate set); cp is the
// critical path |W| of the optimized order when one was computed
// (haveCP); the entry's CPDelta tracks |W| against the previous plan.
func (s *gow) record(t *model.Txn, d Decision, pairs [][2]int64, cp float64, haveCP bool, note string) {
	if s.audit == nil {
		return
	}
	st := t.CurrentStep()
	e := obs.AuditEntry{
		Scheduler: s.Name(), Txn: t.ID,
		File: int(st.File), Mode: st.LockMode.String(),
		Decision: d.String(), Note: note,
	}
	s.auditCands = s.auditCands[:0]
	for _, pr := range pairs {
		s.auditCands = append(s.auditCands, pr[1])
	}
	e.Candidates = s.auditCands
	if haveCP {
		e.EQ = cp
		e.CPDelta = cp - s.lastCP
		s.lastCP = cp
	}
	s.audit.Record(&e)
}

// Admit is Phase 0: the chain-form test (cost: toptime). A transaction that
// would break chain form is not started; the control node retries it later.
func (s *gow) Admit(t *model.Txn) (bool, sim.Time) {
	if s.screen[t.ID] {
		// Cached monotone rejection from the epoch's prescreen: the graph
		// has only grown since, so the full test would reject too, at the
		// same TopTime charge.
		return false, s.p.TopTime
	}
	if !s.graph.ChainFormAfterAdd(t) {
		return false, s.p.TopTime
	}
	s.graph.Add(t)
	s.seed = seedHolderOrder(s.seed, s.graph, s.locks, t)
	return true, s.p.TopTime
}

// DecisionWorkers implements DecisionParallel.
func (s *gow) DecisionWorkers() int { return s.p.DecisionWorkers }

// SetDecisionLane implements DecisionParallel.
func (s *gow) SetDecisionLane(l *pool.Lane) { s.lane = l }

// PrescreenAdmits implements AdmitScreener: run the chain-form test for
// every candidate concurrently (each worker with private AddCheck scratch)
// against the sweep-start graph and cache the rejections for Admit.
// Rejections are monotone while the graph only grows — degrees grow and
// components only merge — and Committed/Aborted drop the cache.
func (s *gow) PrescreenAdmits(ts []*model.Txn) {
	clear(s.screen)
	if w := decisionWorkers(s.p, s.lane); w > 1 && len(ts) > 1 {
		s.screenTxns = append(s.screenTxns[:0], ts...)
		if cap(s.screenRej) < len(ts) {
			s.screenRej = make([]bool, len(ts))
		} else {
			s.screenRej = s.screenRej[:len(ts)] // workers write every index
		}
		if nw := s.lane.Workers(); len(s.screenCk) < nw {
			s.screenCk = append(s.screenCk, make([]wtpg.AddCheck, nw-len(s.screenCk))...)
		}
		s.lane.Run((*gowScreenRun)(s), len(ts), w)
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

// gowScreenRun is gow's prescreen fan-out entry point (pool.Runner).
type gowScreenRun gow

func (r *gowScreenRun) RunTask(worker, i int) {
	s := (*gow)(r)
	s.screenRej[i] = !s.graph.ChainFormAfterAddWith(s.screenTxns[i], &s.screenCk[worker])
}

func (s *gow) Request(t *model.Txn) Outcome {
	if holdsSufficient(s.locks, t) {
		s.record(t, Grant, nil, 0, false, "holds sufficient lock")
		return Outcome{Decision: Grant}
	}
	st := t.CurrentStep()
	// Phase 1: blocked by a current holder.
	if !s.locks.CanGrant(t.ID, st.File, st.LockMode) {
		s.record(t, Block, nil, 0, false, "conflicting lock holder")
		return Outcome{Decision: Block}
	}
	if s.p.GOWGreedy {
		// Ablation: no global optimization — grant whenever the implied
		// orientations do not contradict the existing order.
		pairs, err := s.graph.GrantOrientations(s.pairs, t, st.File, st.LockMode)
		s.pairs = pairs
		if err != nil {
			s.record(t, Delay, pairs, 0, false, err.Error())
			return Outcome{Decision: Delay, CPU: s.p.DDTime}
		}
		if err := s.graph.OrientAll(pairs); err != nil {
			s.record(t, Delay, pairs, 0, false, err.Error())
			return Outcome{Decision: Delay, CPU: s.p.DDTime}
		}
		s.locks.Grant(t.ID, st.File, st.LockMode)
		s.record(t, Grant, pairs, 0, false, "")
		return Outcome{Decision: Grant, CPU: s.p.DDTime}
	}
	// Phase 2: compute the globally optimized serializable order W
	// (cost: chaintime). The CPU charge is made regardless; the plan itself
	// is only materialized when the grant would determine new orders, since
	// with no pairs to test against W the computation cannot change the
	// decision (it has no side effects on the graph).
	cpu := s.p.ChainTime
	pairs, err := s.graph.GrantOrientations(s.pairs, t, st.File, st.LockMode)
	s.pairs = pairs
	if err != nil {
		s.record(t, Delay, nil, 0, false, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	cp, haveCP := 0.0, false
	if len(pairs) > 0 {
		plan := &s.plan
		// Phase 2 fans per-component solving over the decision lane when one
		// is injected; the plan is byte-identical either way.
		var err error
		if w := decisionWorkers(s.p, s.lane); w > 1 {
			err = s.graph.OptimalChainOrientationParallelInto(wtpg.RemainingDemand, plan, s.lane, w)
		} else {
			err = s.graph.OptimalChainOrientationInto(wtpg.RemainingDemand, plan)
		}
		if err != nil {
			panic(fmt.Sprintf("sched: GOW graph lost chain form: %v", err))
		}
		cp, haveCP = plan.Value, true
		// Phase 3: the orders granting q would determine must agree with W.
		for _, pr := range pairs {
			if ok, found := plan.Precedes(pr[1], pr[0]); found && ok {
				// W wants the other transaction first; q is inconsistent.
				if s.audit != nil {
					s.record(t, Delay, pairs, cp, haveCP,
						fmt.Sprintf("W orders T%d before T%d", pr[1], pr[0]))
				}
				return Outcome{Decision: Delay, CPU: cpu}
			}
		}
	}
	// Phase 4: grant and fix the newly determined precedence edges.
	if err := s.graph.OrientAll(pairs); err != nil {
		s.record(t, Delay, pairs, cp, haveCP, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.locks.Grant(t.ID, st.File, st.LockMode)
	s.record(t, Grant, pairs, cp, haveCP, "")
	return Outcome{Decision: Grant, CPU: cpu}
}

func (s *gow) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }

func (s *gow) Committed(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
	clear(s.screen) // removals invalidate cached monotone rejections
}

// Aborted removes the transaction's WTPG node (its precedence edges go with
// it) and releases its locks. GOW itself never aborts a transaction; this
// is the fault-induced rollback path.
func (s *gow) Aborted(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
	clear(s.screen) // removals invalidate cached monotone rejections
}

// Locks exposes the lock table for invariant checks in tests.
func (s *gow) Locks() *lock.Table { return s.locks }

// Graph exposes the WTPG for invariant checks in tests.
func (s *gow) Graph() *wtpg.Graph { return s.graph }
