package machine

import (
	"runtime"
	"testing"
	"time"

	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// TestDecisionPoolStoppedAfterRun is the regression test for the decision
// worker pool leak: machines whose scheduler fans decisions over several
// workers must stop those workers when Run or RunClosed returns, so the
// goroutine count comes back to its baseline once the runs are done.
func TestDecisionPoolStoppedAfterRun(t *testing.T) {
	newMachine := func(seed int64, arrivals float64) *Machine {
		p := sched.DefaultParams()
		p.DecisionWorkers = 4
		cfg := DefaultConfig()
		cfg.ArrivalRate = arrivals
		cfg.Duration = 200_000 * sim.Millisecond
		m, err := New(cfg, sched.MustNew("LOW", p), workload.NewExp1(16), sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := runtime.NumGoroutine()
	for seed := int64(1); seed <= 5; seed++ {
		if sum := newMachine(seed, 0.6).Run(); sum.Completions == 0 {
			t.Fatalf("seed %d: Run committed nothing", seed)
		}
		m := newMachine(seed, 0)
		g := workload.NewExp1(16)
		rng := sim.NewRNG(seed).Stream("batch")
		for i := 0; i < 24; i++ {
			m.Submit(g.Steps(rng))
		}
		if sum := m.RunClosed(sim.Time(1) << 50); sum.Completions == 0 {
			t.Fatalf("seed %d: RunClosed committed nothing", seed)
		}
	}
	// Stopped workers exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the runs, %d before: decision workers leaked", n, base)
	}
}
