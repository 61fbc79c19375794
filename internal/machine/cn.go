package machine

import (
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
)

// cnOp names a control-node job body; cnContOp names its continuation. The
// bodies and continuations live as Machine methods (cnBody, cnFinish), so a
// queued job is a small value instead of a pair of heap-allocated closures —
// the CN runs one job per scheduler decision and per message, which makes
// this the hottest allocation site of a run.
type cnOp uint8

const (
	opClosure  cnOp = iota // job.fn carries the body (tests, rare paths)
	opAdmit                // admission test for job.e
	opRequest              // lock request for job.e's current step
	opDispatch             // CN send of job.e's granted step (job.attempt)
	opStepDone             // CN receive of job.run's completion
	opCommit               // validation + commitment of job.e
)

// cnOpNames label the CN job spans of the observability layer, indexed by
// cnOp; SetObs registers one span kind per name.
var cnOpNames = [...]string{
	opClosure:  "cn:closure",
	opAdmit:    "cn:admit",
	opRequest:  "cn:request",
	opDispatch: "cn:dispatch",
	opStepDone: "cn:step-done",
	opCommit:   "cn:commit",
}

type cnContOp uint8

const (
	contNone     cnContOp = iota
	contClosure           // cont.fn carries the continuation
	contPark              // admission failed: park job.e
	contStart             // admitted: proceed to the first step
	contExec              // granted: execute the step
	contBlock             // blocked: wait on the step file's release
	contDelay             // policy-delayed: wait for a wake-up
	contAbort             // deadlock victim: roll back and restart
	contDispatch          // send done: place the step's cohorts
	contStepDone          // receive done: advance to the next step
	contCommitOK
	contCommitFail
)

// cnJob is one unit of control-node work: either an op code with its
// operands (dispatched through Machine.cnBody), or — for tests and generic
// callers — a closure body returning the CPU time the decision consumed and
// a continuation to run when that CPU time has elapsed (nil for none).
type cnJob struct {
	op      cnOp
	fn      func() (sim.Time, func())
	e       *exec
	run     *stepRun
	attempt int
}

// cnCont is a job body's continuation, run after the decision's CPU time.
type cnCont struct {
	op      cnContOp
	fn      func()
	e       *exec
	run     *stepRun
	attempt int
}

// controlNode is the single FCFS CPU of the control node: scheduler
// decisions, startup/commit coordination and message handling all queue
// here. Job bodies run at service start (that is when the decision is
// made); their continuations run after the decision's CPU time.
type controlNode struct {
	eng  *sim.Engine
	met  *metrics.Collector
	m    *Machine // body/continuation dispatcher; nil in CN-only tests
	busy bool
	q    []cnJob
	head int

	// In-flight job state. The CN is a single serial server, so at most one
	// completion is outstanding; onDone is bound once so finishing a job
	// schedules no fresh closure.
	curCPU  sim.Time
	curCont cnCont
	onDone  sim.Handler

	// ob records one span per job service when observability is enabled
	// (nil Observer = disabled, zero cost); opKinds are the span kinds of
	// cnOpNames, curSpan is the in-flight job's.
	ob      *obs.Observer
	opKinds [len(cnOpNames)]obs.SpanKind
	curSpan obs.SpanID
}

func newControlNode(eng *sim.Engine, met *metrics.Collector) *controlNode {
	c := &controlNode{eng: eng, met: met}
	c.onDone = func(now sim.Time) {
		c.met.CNBusy(c.curCPU)
		c.ob.End(c.curSpan, now)
		cont := c.curCont
		c.curCont = cnCont{}
		switch cont.op {
		case contNone:
		case contClosure:
			cont.fn()
		default:
			c.m.cnFinish(cont)
		}
		c.next()
	}
	return c
}

// submit enqueues a job; the CPU starts it as soon as it is free.
func (c *controlNode) submit(job cnJob) {
	c.q = append(c.q, job)
	if !c.busy {
		c.busy = true
		c.next()
	}
}

// queueLen reports the number of jobs waiting (excluding the one running).
func (c *controlNode) queueLen() int { return len(c.q) - c.head }

func (c *controlNode) next() {
	if c.head == len(c.q) {
		c.q = c.q[:0]
		c.head = 0
		c.busy = false
		return
	}
	job := c.q[c.head]
	c.q[c.head] = cnJob{}
	c.head++
	// Reclaim drained prefix occasionally to bound memory.
	if c.head > 1024 && c.head*2 > len(c.q) {
		c.q = append(c.q[:0], c.q[c.head:]...)
		c.head = 0
	}
	if c.ob.Enabled() {
		var txn int64
		if job.e != nil {
			txn = job.e.txn.ID
		}
		c.curSpan = c.ob.Begin(c.opKinds[job.op], txn, -1, -1, 0, c.eng.Now())
	}
	var cpu sim.Time
	var cont cnCont
	if job.op == opClosure {
		var done func()
		cpu, done = job.fn()
		if done != nil {
			cont = cnCont{op: contClosure, fn: done}
		}
	} else {
		cpu, cont = c.m.cnBody(job)
	}
	if cpu < 0 {
		panic("machine: negative CN CPU time")
	}
	c.curCPU = cpu
	c.curCont = cont
	c.eng.Schedule(cpu, c.onDone)
}
