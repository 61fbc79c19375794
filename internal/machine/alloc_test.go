package machine

import (
	"testing"

	"batchsched/internal/admit"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// TestDPNSteadyStateAllocFree pins the allocation audit at the node layer:
// a warmed DPN cycling pooled cohorts — completion, a payload-event
// round trip standing in for the CN hop, redelivery — must run without a
// single allocation per event. Everything reusable is created at setup:
// cohorts, their done closures, and the prebound redelivery handler.
func TestDPNSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	met := metrics.NewCollector(1, 0)
	d := newDPN(0, eng, met)

	const residents = 6
	cohorts := make([]*cohort, residents)
	// readd returns a completed cohort to the node after a fixed message
	// delay, with fresh demand; prebound once so SchedulePayload stays on
	// the engine's no-closure path.
	readd := func(now sim.Time, arg any) {
		c := arg.(*cohort)
		c.remaining = 7 * sim.Millisecond
		d.add(c)
	}
	for i := range cohorts {
		c := &cohort{remaining: 7 * sim.Millisecond, quantum: 2 * sim.Millisecond}
		c.done = func() {
			eng.SchedulePayload(2*sim.Millisecond, readd, c)
		}
		cohorts[i] = c
	}
	for i, c := range cohorts {
		i, c := i, c
		eng.ScheduleAt(sim.Time(i)*sim.Millisecond, func(sim.Time) { d.add(c) })
	}

	// Warm the free lists, the ring, and the calendar's capacity.
	horizon := sim.Time(0)
	step := func() {
		horizon += 100 * sim.Millisecond
		for eng.Step(horizon) {
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("steady-state allocations: %v per 100ms window, want 0", avg)
	}
	if eng.Executed() == 0 || met.DPNBusyTime(0) == 0 {
		t.Fatal("steady-state loop did not actually run")
	}
}

// TestServiceEpochAllocFree pins the simulator's admission epoch at zero
// allocations once warm: arrivals offered to a full queue (their queue
// entries live in the pooled execs, their sheds go to the reused buffer),
// the refill pop, expiry, the overload update and the epoch digest with its
// completion-RT sort. It drives the epoch pieces directly on a machine
// whose service run has finished, so the calendar and the scheduler stay
// out of the count.
func TestServiceEpochAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	pol := admit.DefaultPolicy()
	pol.MaxQueue = 4
	cfg.Service = &pol
	cfg.ArrivalRate = 0.42
	cfg.Duration = 200_000 * sim.Millisecond
	m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewExp1(16), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	now := m.eng.Now()
	txn := model.NewTxn(1<<40, now, nil)
	rts := []sim.Time{9 * sim.Second, 2 * sim.Second, 30 * sim.Second, 4 * sim.Second}
	epochs, calls := m.epochNum, 0
	epoch := func() {
		calls++
		// Two arrivals per pop keep the queue full, so arrivals shed.
		m.svcArrive(m.newExec(txn))
		m.svcArrive(m.newExec(txn))
		if it, ok := m.svc.Pop(now); ok {
			m.execPool = append(m.execPool, it.Payload.(*exec))
		}
		m.epochRTs = append(m.epochRTs[:0], rts...)
		m.shedAll(m.svc.Expire(now, m.shedBuf[:0]))
		m.svc.EndEpoch(now)
		m.emitEpoch(now)
	}
	for i := 0; i < 2*pol.MaxQueue; i++ {
		epoch()
	}
	shed := m.svc.Stats().TotalShed()
	if avg := testing.AllocsPerRun(100, epoch); avg != 0 {
		t.Fatalf("admission epoch: %v allocations, want 0", avg)
	}
	if m.epochNum != epochs+calls || m.svc.Stats().TotalShed() < shed+100 {
		t.Fatalf("epoch loop did not run or did not shed: %d epochs, %d sheds", m.epochNum-epochs, m.svc.Stats().TotalShed()-shed)
	}
}
