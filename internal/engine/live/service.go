package live

import (
	"fmt"
	"slices"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Service mode: the live backend as an open system. An arrivals goroutine
// draws (gap, steps, class) from the same seed-deterministic RNG streams the
// simulator uses ("arrivals", "workload", "class" — so the offered sequence
// is reproducible; wall-clock interleaving decides how it lands), sleeps the
// gaps in wall time, and feeds the CN loop through a channel. The CN runs
// the identical admit.Service the simulator drives: a wall-clock ticker
// marks epoch boundaries (expiry, overload control, optional eviction,
// window refill), completions free window slots, and at the configured
// duration the arrivals goroutine closes its channel, the queue is drained
// (ShedDrain), and the loop exits once the window empties — every DPN
// goroutine, the arrivals goroutine and any restart timers included.

// svcArrival is one drawn arrival in flight from the arrivals goroutine to
// the CN.
type svcArrival struct {
	steps []model.Step
	class admit.Class
}

// RunService executes an open-stream service run: arrivals from arr, bodies
// from gen, for cfg.ServiceDuration of wall time. Requires cfg.Service.
// Call instead of Run (after Submit-free setup); returns the run summary
// over the full wall window.
func (b *Backend) RunService(gen workload.Generator, arr workload.Arrivals, seed int64) metrics.Summary {
	if b.ran {
		panic("live: RunService after Run")
	}
	if b.cfg.Service == nil {
		panic("live: RunService needs Config.Service")
	}
	if gen == nil || arr == nil {
		panic("live: RunService needs a generator and an arrival process")
	}
	b.ran = true
	svc, err := admit.NewService(*b.cfg.Service)
	if err != nil {
		panic(err) // Config.Validate already vetted the policy
	}
	b.svc = svc
	// The window bound doubles as the admission-guard MPL, as in machine.New
	// (Validate required Config.MPL == 0).
	b.cfg.MPL = b.cfg.Service.MPL
	mpl := b.cfg.MPL

	if b.stream != nil {
		b.strSheds = b.stream.Rate("live_sheds",
			"Transactions turned away by admission backpressure.", 10*time.Second, time.Second)
		b.strQueueDepth = b.stream.Gauge("live_admit_queue_depth",
			"Admission-queue depth at the last epoch boundary.")
		b.strSojournUS = b.stream.Gauge("live_admit_p95_sojourn_us",
			"Sliding p95 admission sojourn in microseconds at the last epoch boundary.")
	}

	// Channel capacities keep every send non-blocking, as in Run, with the
	// batch size n replaced by the window bound: at most MPL transactions are
	// admitted at once, each with at most one active step.
	b.comp = make(chan completion, mpl*b.cfg.NumNodes+1)
	b.restartQ = make(chan *texec, mpl+1)
	quantum := b.cfg.RowsPerObject / b.cfg.DD
	if quantum < 1 {
		quantum = 1
	}
	b.dpns = make([]*dpnWorker, b.cfg.NumNodes)
	for i := range b.dpns {
		b.dpns[i] = &dpnWorker{
			id:          i,
			in:          make(chan *liveCohort, mpl+1),
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
			node := fmt.Sprintf("%d", i)
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

	// The arrivals goroutine: deterministic draw sequence, wall-clock gaps.
	// It owns arrivalQ's close; stop unblocks it if the CN bails early.
	arrivalQ := make(chan svcArrival, b.cfg.Service.MaxQueue+1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(arrivalQ)
		rng := sim.NewRNG(seed)
		rngA := rng.Stream("arrivals")
		rngW := rng.Stream("workload")
		rngC := rng.Stream("class")
		gapTimer := time.NewTimer(0)
		if !gapTimer.Stop() {
			<-gapTimer.C
		}
		start := time.Now()
		for {
			gap := arr.Next(b.clk.Now(), rngA)
			gapTimer.Reset(time.Duration(gap) * time.Microsecond)
			select {
			case <-gapTimer.C:
			case <-stop:
				gapTimer.Stop()
				return
			}
			if time.Since(start) >= b.cfg.ServiceDuration {
				return
			}
			a := svcArrival{steps: gen.Steps(rngW), class: b.cfg.Service.PickClass(rngC)}
			select {
			case arrivalQ <- a:
			case <-stop:
				return
			}
		}
	}()

	epoch := time.NewTicker(time.Duration(b.cfg.Service.Epoch) * time.Microsecond)
	defer epoch.Stop()
	deadline := time.NewTimer(b.cfg.ServiceDuration + b.cfg.Deadline)
	defer deadline.Stop()

	arrivalsOpen := true
	for {
		for len(b.jobs) > 0 {
			j := b.jobs[0]
			b.jobs = b.jobs[1:]
			t0 := time.Now()
			b.process(j)
			b.cnBusy += time.Since(t0)
		}
		if !arrivalsOpen && b.active == 0 && b.restartPending == 0 && b.svc.Depth() == 0 {
			break
		}
		select {
		case a, ok := <-arrivalQ:
			if !ok {
				arrivalsOpen = false
				arrivalQ = nil
				now := b.clk.Now()
				b.shedAll(b.svc.Drain(now, b.shedBuf[:0]))
				b.fillWindowLive(now) // nothing queued, but parked retries may proceed
				continue
			}
			b.svcOffer(a)
		case c := <-b.comp:
			b.handleCompletion(c)
		case e := <-b.restartQ:
			b.restartPending--
			b.jobs = append(b.jobs, liveJob{op: opAdmit, e: e})
		case <-epoch.C:
			b.runEpochLive()
		case <-deadline.C:
			b.err = fmt.Errorf("live: service run stalled %v past its %v duration: active=%d queue=%d jobs=%d restarting=%d",
				b.cfg.Deadline, b.cfg.ServiceDuration, b.active, b.svc.Depth(), len(b.jobs), b.restartPending)
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

// svcOffer books one drawn arrival and offers it to the admission queue.
func (b *Backend) svcOffer(a svcArrival) {
	now := b.clk.Now()
	b.met.Arrival(now)
	b.nextID++
	t := model.NewTxn(b.nextID, now, a.steps)
	e := &texec{txn: t, class: a.class}
	if b.ob.Enabled() {
		e.txnSpan = b.ob.Begin(b.spanKinds.Txn, t.ID, -1, -1, 0, now)
	}
	e.item = admit.Item{ID: t.ID, Class: a.class, Arrived: now, Payload: e}
	sheds, _ := b.svc.Arrive(&e.item, b.shedBuf[:0])
	b.shedAll(sheds)
}

// shedAll retires every shed of one admission call and keeps the list's
// storage for the next call.
func (b *Backend) shedAll(sheds []admit.Shed) {
	for _, sh := range sheds {
		b.shedTexec(sh)
	}
	b.shedBuf = sheds[:0]
}

// shedTexec retires a turned-away transaction (live analogue of
// machine.shedExec; the wrapper is left to the GC).
func (b *Backend) shedTexec(sh admit.Shed) {
	e := sh.Item.Payload.(*texec)
	switch sh.Reason {
	case admit.ShedQueueFull:
		b.met.ShedQueueFull()
	case admit.ShedDeadline:
		b.met.ShedDeadline()
	case admit.ShedOverload:
		b.met.ShedOverload()
	default:
		b.met.ShedDrain()
	}
	b.mark(b.strSheds)
	if e.txnSpan != 0 {
		b.ob.End(e.txnSpan, b.clk.Now())
		e.txnSpan = 0
	}
}

// runEpochLive is the wall-clock epoch boundary: expiry, overload control,
// optional eviction, window refill, stats emission.
func (b *Backend) runEpochLive() {
	now := b.clk.Now()
	b.shedAll(b.svc.Expire(now, b.shedBuf[:0]))
	b.svc.EndEpoch(now)
	if b.svc.Overloaded() && b.cfg.Service.EvictOnOverload {
		b.evictOneLive()
	}
	b.fillWindowLive(now)
	b.emitEpochLive(now)
	if b.strQueueDepth != nil {
		b.strQueueDepth.Set(int64(b.svc.Depth()))
		b.strSojournUS.Set(int64(b.svc.P95Sojourn()))
	}
}

// fillWindowLive pops queued arrivals into the in-flight window (window
// counts pops not yet committed or evicted, parked retries included, so the
// MPL cap holds across scheduler refusals). The popped batch is handed to
// AdmitScreener schedulers for a concurrent prescreen before the one-by-one
// Admit jobs run (mirrors machine.fillWindow; enqueue order is unchanged).
func (b *Backend) fillWindowLive(now sim.Time) {
	start := len(b.jobs)
	for b.window < b.cfg.Service.MPL {
		it, ok := b.svc.Pop(now)
		if !ok {
			break
		}
		b.window++
		b.jobs = append(b.jobs, liveJob{op: opAdmit, e: it.Payload.(*texec)})
	}
	if as, ok := b.sch.(sched.AdmitScreener); ok && len(b.jobs)-start > 1 {
		b.screenBuf = b.screenBuf[:0]
		for _, j := range b.jobs[start:] {
			b.screenBuf = append(b.screenBuf, j.e.txn)
		}
		as.PrescreenAdmits(b.screenBuf)
	}
}

// evictOneLive removes the smallest-id blocked or policy-delayed batch-class
// transaction from the window, releasing its locks and WTPG node (live
// analogue of machine.evictOne; waiting transactions provably have no cohort
// in flight and no queued CN job).
func (b *Backend) evictOneLive() bool {
	var victim *texec
	for _, e := range b.delayed {
		if e.class == admit.Batch && (victim == nil || e.txn.ID < victim.txn.ID) {
			victim = e
		}
	}
	for _, list := range b.blocked {
		for _, e := range list {
			if e.class == admit.Batch && (victim == nil || e.txn.ID < victim.txn.ID) {
				victim = e
			}
		}
	}
	if victim == nil {
		return false
	}
	b.removeWaiterLive(victim)
	b.endWait(victim)
	b.sch.Aborted(victim.txn)
	victim.txn.StepIndex = 0
	b.active--
	b.window--
	b.met.Evicted()
	b.svc.NoteEviction()
	if victim.txnSpan != 0 {
		b.ob.End(victim.txnSpan, b.clk.Now())
		victim.txnSpan = 0
	}
	b.wakeCommit(victim.txn)
	return true
}

// removeWaiterLive deletes e from whichever wait structure holds it.
func (b *Backend) removeWaiterLive(e *texec) {
	for i, d := range b.delayed {
		if d == e {
			b.delayed = append(b.delayed[:i], b.delayed[i+1:]...)
			return
		}
	}
	f := e.txn.CurrentStep().File
	list := b.blocked[f]
	for i, w := range list {
		if w == e {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(b.blocked, f)
			} else {
				b.blocked[f] = list
			}
			return
		}
	}
	panic("live: evict victim not found in its wait structure")
}

// emitEpochLive digests the epoch for the epoch hook (per-epoch deltas plus
// the epoch's completion RTs), mirroring machine.emitEpoch.
func (b *Backend) emitEpochLive(now sim.Time) {
	b.epochNum++
	cum := b.svc.Stats()
	es := admit.EpochStats{
		Epoch:       b.epochNum,
		Start:       b.epochStart,
		End:         now,
		Arrivals:    cum.Arrivals - b.epochPrev.Arrivals,
		Admitted:    cum.TotalAdmitted() - b.epochPrev.TotalAdmitted(),
		Completions: len(b.epochRTs),
		Sheds:       cum.TotalShed() - b.epochPrev.TotalShed(),
		Evictions:   cum.Evictions - b.epochPrev.Evictions,
		QueueDepth:  b.svc.Depth(),
		Active:      b.active,
		P95Sojourn:  b.svc.P95Sojourn(),
		Overloaded:  b.svc.Overloaded(),
		Cum:         cum,
	}
	if n := len(b.epochRTs); n > 0 {
		slices.Sort(b.epochRTs)
		var sum sim.Time
		for _, rt := range b.epochRTs {
			sum += rt
		}
		es.MeanRT = sum / sim.Time(n)
		idx := (n*95+99)/100 - 1
		if idx < 0 {
			idx = 0
		}
		es.P95RT = b.epochRTs[idx]
	}
	b.epochPrev = cum
	b.epochStart = now
	b.epochRTs = b.epochRTs[:0]
	if b.epochHook != nil {
		b.epochHook(es)
	}
}

// SetEpochHook installs a per-epoch callback (service mode only). The hook
// runs on the CN goroutine inside the epoch event. Call before RunService.
func (b *Backend) SetEpochHook(h func(admit.EpochStats)) { b.epochHook = h }

// Service exposes the admission service (nil before RunService / outside
// service mode).
func (b *Backend) Service() *admit.Service { return b.svc }
