package machine

import (
	"sort"

	"batchsched/internal/admit"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// Service mode (Config.Service): the machine runs as an open system behind
// the streaming-admission subsystem. Arrivals are classed and offered to the
// admit.Service queue instead of going straight to the scheduler; an epoch
// event expires overdue work, recomputes overload control, optionally evicts
// one blocked batch transaction, and batch-admits queued arrivals into the
// policy's in-flight window. Completions free window slots but fresh
// admissions wait for the next epoch boundary (epoch-batched admission, as
// in DGCC-style batch construction); only scheduler-refused admissions that
// already left the queue are retried immediately via the closed-path admitQ.
//
// Shed and evicted transactions never complete, so service runs are always
// duration-bounded (Run), never drained with RunClosed.

// svcArrive offers one arrival to the admission queue, shedding whatever the
// policy turns away.
func (m *Machine) svcArrive(e *exec) {
	now := m.eng.Now()
	e.class = m.svc.Policy().PickClass(m.classRNG)
	e.phase = phQueued
	it := &admit.Item{ID: e.txn.ID, Class: e.class, Arrived: now, Payload: e}
	sheds, _ := m.svc.Arrive(it)
	for _, sh := range sheds {
		m.shedExec(sh)
	}
}

// shedExec retires a turned-away transaction: count it, close its span, and
// recycle the wrapper (a queued exec has no event, timer or CN job
// referencing it).
func (m *Machine) shedExec(sh admit.Shed) {
	e := sh.Item.Payload.(*exec)
	switch sh.Reason {
	case admit.ShedQueueFull:
		m.met.ShedQueueFull()
	case admit.ShedDeadline:
		m.met.ShedDeadline()
	case admit.ShedOverload:
		m.met.ShedOverload()
	default:
		m.met.ShedDrain()
	}
	e.phase = phFinished
	if e.txnSpan != 0 {
		m.ob.End(e.txnSpan, m.eng.Now())
		e.txnSpan = 0
	}
	m.execPool = append(m.execPool, e)
}

// runEpoch is the epoch-boundary event: expiry, overload control, optional
// eviction, window refill, stats emission, and rescheduling.
func (m *Machine) runEpoch(now sim.Time) {
	for _, sh := range m.svc.Expire(now) {
		m.shedExec(sh)
	}
	m.svc.EndEpoch(now)
	if m.svc.Overloaded() && m.svc.Policy().EvictOnOverload {
		m.evictOne()
	}
	m.fillWindow(now)
	m.emitEpoch(now)
	m.eng.Schedule(m.svc.Policy().Epoch, m.onEpoch)
}

// fillWindow pops queued arrivals into the in-flight window until it is full
// or the queue empties. window counts transactions that left the queue and
// have not committed or been evicted — including scheduler-refused
// admissions parked in admitQ — so the MPL cap holds across retries.
//
// The epoch's batch is popped first and only then offered to tryAdmit:
// tryAdmit just enqueues a CN job (it touches neither the service queue nor
// the window counter), so the pop sequence — and with it every downstream
// decision — is byte-identical to the old pop-and-admit interleaving. The
// intermediate batch is what lets AdmitScreener schedulers prescreen all
// candidates concurrently before the one-by-one Admit calls (parallel.go).
func (m *Machine) fillWindow(now sim.Time) {
	batch := m.fillBuf[:0]
	for m.window < m.svc.Policy().MPL {
		it, ok := m.svc.Pop(now)
		if !ok {
			break
		}
		m.window++
		batch = append(batch, it.Payload.(*exec))
	}
	if as, ok := m.sch.(sched.AdmitScreener); ok && len(batch) > 1 {
		m.screenBuf = m.screenBuf[:0]
		for _, e := range batch {
			m.screenBuf = append(m.screenBuf, e.txn)
		}
		as.PrescreenAdmits(m.screenBuf)
	}
	for i, e := range batch {
		batch[i] = nil // don't pin retired execs through the buffer
		m.tryAdmit(e)
	}
	m.fillBuf = batch[:0]
}

// evictOne removes the blocked or policy-delayed batch-class transaction
// with the smallest id from the in-flight window, releasing its locks and
// WTPG node. Only waiting transactions are candidates: they provably have no
// pending CN job, calendar event or timer referencing their exec, so the
// wrapper can be retired on the spot. The smallest-id rule keeps victim
// selection deterministic (map iteration order must not leak into the run).
func (m *Machine) evictOne() bool {
	var victim *exec
	for _, e := range m.delayed {
		if e.class == admit.Batch && (victim == nil || e.txn.ID < victim.txn.ID) {
			victim = e
		}
	}
	for _, list := range m.blocked {
		for _, e := range list {
			if e.class == admit.Batch && (victim == nil || e.txn.ID < victim.txn.ID) {
				victim = e
			}
		}
	}
	if victim == nil {
		return false
	}
	m.removeWaiter(victim)
	m.endWait(victim)
	m.sch.Aborted(victim.txn) // releases locks, drops the WTPG node in place
	victim.txn.StepIndex = 0
	victim.phase = phFinished
	m.active--
	m.window--
	m.met.Evicted()
	m.svc.NoteEviction()
	if victim.txnSpan != 0 {
		m.ob.End(victim.txnSpan, m.eng.Now())
		victim.txnSpan = 0
	}
	m.wakeCommit(victim.txn) // its released locks may unblock others
	m.execPool = append(m.execPool, victim)
	return true
}

// removeWaiter deletes e from the wait structure its phase names.
func (m *Machine) removeWaiter(e *exec) {
	switch e.phase {
	case phDelayed:
		for i, d := range m.delayed {
			if d == e {
				m.delayed = append(m.delayed[:i], m.delayed[i+1:]...)
				return
			}
		}
	case phBlocked:
		f := e.txn.CurrentStep().File
		list := m.blocked[f]
		for i, b := range list {
			if b == e {
				m.blocked[f] = append(list[:i], list[i+1:]...)
				m.nblocked--
				return
			}
		}
	}
	panic("machine: evict victim not found in its wait structure")
}

// emitEpoch digests the epoch (per-epoch deltas against the previous
// cumulative snapshot plus the epoch's completion RTs) and hands it to the
// epoch hook.
func (m *Machine) emitEpoch(now sim.Time) {
	m.epochNum++
	cum := m.svc.Stats()
	es := admit.EpochStats{
		Epoch:       m.epochNum,
		Start:       m.epochStart,
		End:         now,
		Arrivals:    cum.Arrivals - m.epochPrev.Arrivals,
		Admitted:    cum.TotalAdmitted() - m.epochPrev.TotalAdmitted(),
		Completions: len(m.epochRTs),
		Sheds:       cum.TotalShed() - m.epochPrev.TotalShed(),
		Evictions:   cum.Evictions - m.epochPrev.Evictions,
		QueueDepth:  m.svc.Depth(),
		Active:      m.active,
		P95Sojourn:  m.svc.P95Sojourn(),
		Overloaded:  m.svc.Overloaded(),
		Cum:         cum,
	}
	if n := len(m.epochRTs); n > 0 {
		sort.Slice(m.epochRTs, func(i, j int) bool { return m.epochRTs[i] < m.epochRTs[j] })
		var sum sim.Time
		for _, rt := range m.epochRTs {
			sum += rt
		}
		es.MeanRT = sum / sim.Time(n)
		idx := (n*95+99)/100 - 1
		if idx < 0 {
			idx = 0
		}
		es.P95RT = m.epochRTs[idx]
	}
	m.epochPrev = cum
	m.epochStart = now
	m.epochRTs = m.epochRTs[:0]
	if m.epochHook != nil {
		m.epochHook(es)
	}
}

// SetEpochHook installs a per-epoch callback (service mode only; the hook
// runs inside the epoch event, so it must not mutate the machine). Call
// before Run.
func (m *Machine) SetEpochHook(h func(admit.EpochStats)) { m.epochHook = h }

// Service exposes the admission service (nil outside service mode), for
// end-of-run stats.
func (m *Machine) Service() *admit.Service { return m.svc }
