package machine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
	"batchsched/internal/workload"
)

// The fast-forward DPN engine (dpn_ff.go) must be observationally identical
// to the quantum-stepped oracle (dpn_stepped.go): same completion times,
// same calendar ordering among simultaneous events, same metrics. These
// tests compare the two engines over randomized node-level schedules and
// full machine runs, byte for byte where the output is serial.

// ffDiffSchedule drives one dpn through a randomized schedule of arrivals,
// cohort deaths, node crashes/restores, straggler toggles and queue-length
// probes, and returns a serial log of everything observable. The schedule is
// derived only from the seed, so both engines replay exactly the same one.
func ffDiffSchedule(t *testing.T, seed int64, stepped bool) []string {
	t.Helper()
	g := sim.NewRNG(seed)
	eng := sim.NewEngine()
	met := metrics.NewCollector(1, 0)
	d := newDPN(0, eng, met)
	d.stepped = stepped
	var log []string

	type arrival struct {
		c     *cohort
		added bool
		done  bool
	}
	n := 5 + g.Intn(20)
	globalQ := sim.Time(1+g.Intn(1500)) * sim.Millisecond
	uniform := g.Intn(2) == 0 // the machine always uses one quantum per run
	for i := 0; i < n; i++ {
		i := i
		at := sim.Time(g.Intn(30_000)) * sim.Millisecond
		rem := sim.Time(g.Intn(5000)) * sim.Millisecond
		if g.Intn(10) == 0 {
			rem = 0
		}
		q := globalQ
		if !uniform {
			q = sim.Time(1+g.Intn(1500)) * sim.Millisecond
		}
		a := &arrival{c: &cohort{remaining: rem, quantum: q}}
		a.c.done = func() {
			a.done = true
			log = append(log, fmt.Sprintf("done %d@%v", i, eng.Now()))
		}
		eng.ScheduleAt(at, func(now sim.Time) {
			if d.down {
				return
			}
			a.added = true
			d.add(a.c)
		})
		if g.Intn(5) == 0 {
			dieAt := at + sim.Time(g.Intn(3000))*sim.Millisecond
			eng.ScheduleAt(dieAt, func(now sim.Time) {
				if a.done || !a.added {
					return
				}
				d.sync() // boundaries before the mark served the cohort live
				a.c.dead = true
				d.deadMarked()
			})
		}
	}
	for i := 0; i < 2; i++ {
		crashAt := sim.Time(g.Intn(30_000)) * sim.Millisecond
		backAt := crashAt + sim.Time(2000+g.Intn(3000))*sim.Millisecond
		eng.ScheduleAt(crashAt, func(now sim.Time) {
			if d.down {
				return
			}
			killed := d.crash()
			log = append(log, fmt.Sprintf("crash@%v killed=%d", now, len(killed)))
		})
		eng.ScheduleAt(backAt, func(now sim.Time) { d.restore() })
	}
	for i := 0; i < 2; i++ {
		onAt := sim.Time(g.Intn(30_000)) * sim.Millisecond
		offAt := onAt + sim.Time(1000+g.Intn(4000))*sim.Millisecond
		eng.ScheduleAt(onAt, func(now sim.Time) { d.setSlow(1.5) })
		eng.ScheduleAt(offAt, func(now sim.Time) { d.setSlow(1) })
	}
	for i := 0; i < 10; i++ {
		at := sim.Time(g.Intn(40_000)) * sim.Millisecond
		eng.ScheduleAt(at, func(now sim.Time) {
			log = append(log, fmt.Sprintf("q=%d@%v", d.queueLen(), now))
		})
	}
	horizon := sim.Time(1 << 50)
	eng.Run(horizon)
	d.flush(horizon)
	log = append(log, fmt.Sprintf("busy=%v", met.DPNBusyTime(0)))
	return log
}

// TestFFDiffRandomSchedules is the node-level differential property test:
// arbitrary arrival/crash/straggler/death schedules must produce identical
// completion times, observation logs and busy totals under both engines.
func TestFFDiffRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		ff := ffDiffSchedule(t, seed, false)
		st := ffDiffSchedule(t, seed, true)
		if len(ff) != len(st) {
			t.Fatalf("seed %d: %d vs %d log entries\nff: %v\nstepped: %v", seed, len(ff), len(st), ff, st)
		}
		for i := range ff {
			if ff[i] != st[i] {
				t.Fatalf("seed %d entry %d: ff %q stepped %q\nff: %v\nstepped: %v", seed, i, ff[i], st[i], ff, st)
			}
		}
	}
}

// diffFaults is the full fault cocktail (crashes, stragglers, message loss
// with timeout-and-retry) used across the differential grids.
var diffFaults = fault.Config{
	MTBF: 80 * sim.Second, MTTR: 5 * sim.Second,
	StragglerMTBF: 150 * sim.Second, StragglerDuration: 10 * sim.Second, StragglerFactor: 3,
	MsgLoss: 0.03, MsgTimeout: 5 * sim.Second, MsgRetries: 2,
}

// ffDiffMachine builds one machine for the differential grid.
func ffDiffMachine(t *testing.T, name string, cfg Config, stepped bool, seed int64) *Machine {
	t.Helper()
	m, err := New(cfg, sched.MustNew(name, sched.DefaultParams()), workload.NewExp1(16), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if stepped {
		m.useSteppedEngine()
	}
	return m
}

// TestFFDiffSummaries compares end-of-run summaries for every scheduler over
// a DD ladder, failure-free and with the full fault cocktail.
func TestFFDiffSummaries(t *testing.T) {
	for _, name := range []string{"NODC", "ASL", "GOW", "LOW", "C2PL", "OPT"} {
		for _, dd := range []int{1, 2, 4, 16} {
			for _, withFaults := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.NumNodes = 16
				cfg.DD = dd
				cfg.ArrivalRate = 0.6
				cfg.Duration = 200_000 * sim.Millisecond
				if withFaults {
					cfg.Faults = diffFaults
				}
				ff := ffDiffMachine(t, name, cfg, false, 7).Run()
				st := ffDiffMachine(t, name, cfg, true, 7).Run()
				if !reflect.DeepEqual(ff, st) {
					t.Errorf("%s DD=%d faults=%v diverged:\nff:      %+v\nstepped: %+v",
						name, dd, withFaults, ff, st)
				}
			}
		}
	}
}

// TestFFDiffTraces compares the full serialized event traces — every
// dispatch, grant, block, commit, restart and fault record in order — so an
// event-ordering difference that happens not to move the summary still
// fails.
func TestFFDiffTraces(t *testing.T) {
	run := func(name string, dd int, withFaults, stepped bool) []byte {
		cfg := DefaultConfig()
		cfg.NumNodes = 16
		cfg.DD = dd
		cfg.ArrivalRate = 0.6
		cfg.Duration = 200_000 * sim.Millisecond
		if withFaults {
			cfg.Faults = diffFaults
		}
		m := ffDiffMachine(t, name, cfg, stepped, 11)
		var buf bytes.Buffer
		m.SetObserver(trace.NewWriter(&buf))
		m.Run()
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name   string
		dd     int
		faults bool
	}{
		{"NODC", 1, false}, {"GOW", 2, false}, {"LOW", 4, false},
		{"ASL", 16, false}, {"GOW", 2, true}, {"OPT", 4, true},
	} {
		ff := run(tc.name, tc.dd, tc.faults, false)
		st := run(tc.name, tc.dd, tc.faults, true)
		if !bytes.Equal(ff, st) {
			t.Errorf("%s DD=%d faults=%v: traces differ (%d vs %d bytes)",
				tc.name, tc.dd, tc.faults, len(ff), len(st))
		}
	}
}

// TestFFDiffBatchScan covers the benchmark configuration itself: whole-file
// 32-object scans at full declustering, where a cohort coalesces the most
// quanta per completion event, must still trace byte-identically.
func TestFFDiffBatchScan(t *testing.T) {
	run := func(stepped bool) []byte {
		cfg := DefaultConfig()
		cfg.NumNodes = 16
		cfg.DD = 16
		cfg.ArrivalRate = 0.15
		cfg.Duration = 200_000 * sim.Millisecond
		m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		if stepped {
			m.useSteppedEngine()
		}
		var buf bytes.Buffer
		m.SetObserver(trace.NewWriter(&buf))
		m.Run()
		return buf.Bytes()
	}
	ff, st := run(false), run(true)
	if !bytes.Equal(ff, st) {
		t.Errorf("batch-scan traces differ (%d vs %d bytes)", len(ff), len(st))
	}
}

// TestDPNDropDeadRunCursor is the regression test for batched dead-cohort
// removal: several consecutive (and wrapping) dead cohorts must be spliced
// out without corrupting the rotation cursor, under both engines.
func TestDPNDropDeadRunCursor(t *testing.T) {
	for _, stepped := range []bool{false, true} {
		eng := sim.NewEngine()
		met := metrics.NewCollector(1, 0)
		d := newDPN(0, eng, met)
		d.stepped = stepped
		q := 100 * sim.Millisecond
		var order []string
		mk := func(id string, rem sim.Time) *cohort {
			c := &cohort{remaining: rem, quantum: q}
			c.done = func() { order = append(order, fmt.Sprintf("%s@%v", id, eng.Now())) }
			d.add(c)
			return c
		}
		// Ring: A B C D E, added at t=0. After A's first quantum, kill B, C
		// (consecutive run after the cursor) and E (wrapping run), leaving
		// A and D to alternate.
		a := mk("A", 250*sim.Millisecond)
		b := mk("B", 400*sim.Millisecond)
		c := mk("C", 400*sim.Millisecond)
		e4 := mk("D", 150*sim.Millisecond)
		e5 := mk("E", 400*sim.Millisecond)
		_ = a
		eng.ScheduleAt(150*sim.Millisecond, func(now sim.Time) {
			d.sync() // boundaries before the mark served the cohorts live
			b.dead = true
			c.dead = true
			e5.dead = true
			d.deadMarked()
		})
		_ = e4
		eng.Run(1 << 40)
		d.flush(1 << 40)
		// A runs 0-100, then B 100-200 (killed mid-service at 150, it still
		// burns its booked quantum), C is dropped for free at 200, D runs
		// 200-300, E is dropped for free at 300, A 300-400, D's final slice
		// 400-450, A's final slice 450-500 (times in ms).
		want := []string{"D@0.450s", "A@0.500s"}
		if len(order) != len(want) {
			t.Fatalf("stepped=%v: completions %v, want %v", stepped, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("stepped=%v: completions %v, want %v", stepped, order, want)
			}
		}
		if got := d.queueLen(); got != 0 {
			t.Fatalf("stepped=%v: ring not empty at end: %d", stepped, got)
		}
		if d.cur != 0 {
			t.Fatalf("stepped=%v: cursor not reset: %d", stepped, d.cur)
		}
	}
}
