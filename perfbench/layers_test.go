package main

import (
	"testing"

	"batchsched/internal/machine"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// TestWrapperForwardsOptionalInterfaces pins the wrapper to the optional
// interfaces the backends type-assert: AdmitScreener exactly when the
// wrapped scheduler screens, DecisionParallel with the wrapped width, and
// Audited and LoadAware always.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	p := sched.DefaultParams()
	p.DecisionWorkers = 3
	for _, name := range sched.Names {
		inner := sched.MustNew(name, p)
		w := newTracer(0).wrapSched(inner)
		if w.Name() != inner.Name() {
			t.Errorf("%s: wrapped Name = %q", name, w.Name())
		}
		_, innerScreens := inner.(sched.AdmitScreener)
		if _, screens := w.(sched.AdmitScreener); screens != innerScreens {
			t.Errorf("%s: wrapper AdmitScreener = %t, scheduler %t", name, screens, innerScreens)
		}
		want := 0
		if dp, ok := inner.(sched.DecisionParallel); ok {
			want = dp.DecisionWorkers()
		}
		if got := w.(sched.DecisionParallel).DecisionWorkers(); got != want {
			t.Errorf("%s: wrapper DecisionWorkers = %d, scheduler %d", name, got, want)
		}
		if _, ok := w.(sched.Audited); !ok {
			t.Errorf("%s: wrapper is not sched.Audited", name)
		}
		if _, ok := w.(sched.LoadAware); !ok {
			t.Errorf("%s: wrapper is not sched.LoadAware", name)
		}
	}
}

// TestWrappedLoadAwareRunMatchesBare runs LOW-LB, whose decisions depend on
// the load probe the machine injects through sched.LoadAware, wrapped and
// bare: a wrapper that dropped the probe would change the summary.
func TestWrappedLoadAwareRunMatchesBare(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.ArrivalRate = 0.6
	cfg.Duration = 300_000 * sim.Millisecond
	sum := func(wrap bool) string {
		var s sched.Scheduler = sched.MustNew("LOW-LB", sched.DefaultParams())
		if wrap {
			s = newTracer(0).wrapSched(s)
		}
		m, err := machine.New(cfg, s, workload.NewExp1(16), sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		return digest(m.Run())
	}
	if bare, wrapped := sum(false), sum(true); bare != wrapped {
		t.Errorf("LOW-LB summary digest: bare %s, wrapped %s", bare, wrapped)
	}
}

// TestSelfCheckPassesOnEveryWorkload runs each workload's first job bare
// and wrapped, as every invocation does, and checks the tracer saw the
// layers the workload exercises.
func TestSelfCheckPassesOnEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one job of every workload")
	}
	for _, name := range workloadNames {
		var chk checks
		chk.digests = map[int]string{}
		r, err := newRunner(name, 1, nil, &chk)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(0)
		o := r.runJob(r.jobs[0], runOpts{tr: tr})
		if chk.failed != 0 {
			t.Errorf("%s: %d failed: %v", name, chk.failed, chk.problems)
		}
		if tr.stats[layerAdmit].calls == 0 || tr.stats[layerRequest].calls == 0 {
			t.Errorf("%s: no scheduler calls timed: %+v", name, tr.stats)
		}
		if o.self <= 0 || o.self >= o.run {
			t.Errorf("%s: run span %v, self time %v", name, o.run, o.self)
		}
		if name == "sim-service" && tr.nEpochs == 0 {
			t.Errorf("%s: epoch hook never ran", name)
		}
		if name != "sim-service" && tr.nEpochs != 0 {
			t.Errorf("%s: %d admission epochs outside service mode", name, tr.nEpochs)
		}
	}
}
