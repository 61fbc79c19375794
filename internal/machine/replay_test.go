package machine

import (
	"bytes"
	"fmt"
	"testing"

	"batchsched/internal/admit"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Closed-form epoch replay (skipRotations) and the read-only sampling
// gauges: complexity, agreement with the stepped oracle, and allocation
// pins.

// TestReplaySkipsWholeRotations pins replay to O(ring) per sync: a probe
// in the middle of a 10^7-quantum epoch must apply at most two boundaries
// per resident cohort, and must leave exactly the remaining demand and
// busy time that many quanta imply. (Per-quantum replay would apply
// millions, and still fail in well under a second.)
func TestReplaySkipsWholeRotations(t *testing.T) {
	const quanta = 10_000_000
	for _, k := range []int{1, 4} {
		eng := sim.NewEngine()
		met := metrics.NewCollector(1, 0)
		d := newDPN(0, eng, met)
		q := 2 * sim.Millisecond
		cohorts := make([]*cohort, k)
		for i := range cohorts {
			cohorts[i] = &cohort{remaining: quanta * q, quantum: q}
			d.add(cohorts[i])
		}
		// Half the epoch's services, plus half a quantum so no boundary
		// falls on the probe instant.
		served := sim.Time(quanta * k / 2)
		mid := served*q + q/2
		var n int
		eng.ScheduleAt(mid, func(sim.Time) { n = d.queueLen() })
		eng.Run(mid)
		if n != k {
			t.Fatalf("k=%d: queueLen = %d, want %d", k, n, k)
		}
		if d.boundaries > 2*k {
			t.Fatalf("k=%d: the probe applied %d boundaries, want <= %d", k, d.boundaries, 2*k)
		}
		if got, want := met.DPNBusyTime(0), served*q; got != want {
			t.Fatalf("k=%d: busy %v, want %v", k, got, want)
		}
		for i, c := range cohorts {
			if got, want := c.remaining, (quanta-served/sim.Time(k))*q; got != want {
				t.Fatalf("k=%d: cohort %d remaining %v, want %v", k, i, got, want)
			}
		}
	}
}

// replayProbeLog drives one node through a randomized multi-rotation
// schedule — staggered arrivals with long demands, straggler toggles,
// cohort deaths and probes — and logs what the probes see. Service times
// and event times are multiples of half a quantum q, so probes often land
// exactly on service boundaries and whole-rotation ends. Gauge probes are
// booked by a chain of events at odd multiples of q/4, which never start a
// service: a boundary at a probe's instant then sorts before the probe
// (its service began before the booking) or after it, never in a booking
// order tie. The fast-forward engine also checks each gauge against a sync
// followed by a plain read. Eight sparse probes log each cohort's
// remaining demand.
func replayProbeLog(t *testing.T, seed int64, stepped bool) []string {
	g := sim.NewRNG(seed)
	eng := sim.NewEngine()
	met := metrics.NewCollector(1, 0)
	d := newDPN(0, eng, met)
	d.stepped = stepped
	var log []string
	var cohorts []*cohort
	q := sim.Time(4+4*g.Intn(12)) * sim.Millisecond
	half := func(n int) sim.Time { return sim.Time(g.Intn(n)) * q / 2 }
	n := 1 + g.Intn(6)
	for i := 0; i < n; i++ {
		i := i
		c := &cohort{remaining: sim.Time(1+g.Intn(400)) * q, quantum: q}
		if g.Intn(4) == 0 {
			c.quantum = sim.Time(1+g.Intn(4)) * q / 2
		}
		c.done = func() { log = append(log, fmt.Sprintf("done %d@%v", i, eng.Now())) }
		cohorts = append(cohorts, c)
		eng.ScheduleAt(half(40), func(sim.Time) { d.add(c) })
		if g.Intn(6) == 0 {
			eng.ScheduleAt(half(400), func(sim.Time) {
				if c.remaining <= 0 || c.dead {
					return
				}
				d.sync()
				c.dead = true
				d.deadMarked()
			})
		}
	}
	if g.Intn(2) == 0 {
		on := half(200)
		eng.ScheduleAt(on, func(sim.Time) { d.setSlow(3) })
		eng.ScheduleAt(on+half(200), func(sim.Time) { d.setSlow(1) })
	}
	for i := 0; i < 8; i++ {
		eng.ScheduleAt(half(600), func(now sim.Time) {
			s := fmt.Sprintf("q=%d@%v busy=%v rem=", d.queueLen(), now, met.DPNBusyTime(0))
			for _, c := range cohorts {
				s += fmt.Sprintf(" %v", c.remaining)
			}
			log = append(log, s)
		})
	}
	gauge := func(now sim.Time) {
		res, busy := d.gauges()
		log = append(log, fmt.Sprintf("gauges@%v busy=%v queue=%d", now, busy, res))
		if !stepped {
			d.sync()
			if busy != met.DPNBusyTime(0) || res != len(d.ring) {
				t.Errorf("seed %d at %v: gauges busy=%v queue=%d, after sync %v/%d",
					seed, now, busy, res, met.DPNBusyTime(0), len(d.ring))
			}
		}
	}
	var book sim.Handler
	links := 0
	book = func(sim.Time) {
		eng.Schedule(q/4+half(16), gauge)
		if links++; links < 60 {
			eng.Schedule(q/2+half(16), book)
		}
	}
	eng.ScheduleAt(q/4+q*sim.Time(g.Intn(4)), book)
	horizon := sim.Time(1 << 40)
	eng.Run(horizon)
	d.flush(horizon)
	return append(log, fmt.Sprintf("busy=%v", met.DPNBusyTime(0)))
}

// TestReplayMatchesSteppedOracle checks the closed-form rotations and the
// read-only gauges against the quantum-stepped engine where epochs span
// hundreds of rotations.
func TestReplayMatchesSteppedOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ff, st := replayProbeLog(t, seed, false), replayProbeLog(t, seed, true)
		if fmt.Sprint(ff) != fmt.Sprint(st) {
			t.Fatalf("seed %d:\nff:      %v\nstepped: %v", seed, ff, st)
		}
	}
}

// gaugeDiffMachine builds the batch-scan machine with the full fault
// cocktail and an odd sampling interval; the caller attaches o.
func gaugeDiffMachine(t *testing.T, stepped bool, o *obs.Observer) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumNodes = 16
	cfg.DD = 16
	cfg.ArrivalRate = 0.15
	cfg.Duration = 1_000_000 * sim.Millisecond
	cfg.Faults = diffFaults
	m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if stepped {
		m.useSteppedEngine()
	}
	o.SetSampleInterval(337 * sim.Millisecond)
	return m
}

// TestSamplingGaugesReadOnly checks the read-only sampling gauges two ways:
// the metrics CSV of a fast-forward run must be byte-identical to the
// stepped oracle's, and at every tick each DPN gauge (and the maintained
// blocked-request count) must equal what a sync followed by a plain read
// reports.
func TestSamplingGaugesReadOnly(t *testing.T) {
	csv := func(stepped bool) []byte {
		o := obs.New()
		m := gaugeDiffMachine(t, stepped, o)
		m.SetObs(o)
		m.Run()
		var b bytes.Buffer
		if err := o.WriteMetricsCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ff, st := csv(false), csv(true)
	if !bytes.Equal(ff, st) {
		t.Fatalf("metrics CSVs differ between engines (%d vs %d bytes)", len(ff), len(st))
	}

	// The check is registered ahead of the machine's own gauges, so it sees
	// each tick's state before any of them may replay.
	o := obs.New()
	m := gaugeDiffMachine(t, false, o)
	var readOnly, replayed int
	o.Gauge("check", func() float64 {
		n := 0
		for _, l := range m.blocked {
			n += len(l)
		}
		if n != m.nblocked {
			t.Errorf("at %v: maintained blocked count %d, map holds %d", m.eng.Now(), m.nblocked, n)
		}
		for _, d := range m.dpns {
			if d.boundaryDue() {
				if _, ok := d.uniform(); !ok {
					replayed++
				} else {
					readOnly++
				}
			}
			q, busy := d.gauges()
			d.sync()
			if busy != m.met.DPNBusyTime(d.id) || q != len(d.ring) {
				t.Errorf("at %v dpn %d: gauges busy=%v queue=%d, after sync %v/%d",
					m.eng.Now(), d.id, busy, q, m.met.DPNBusyTime(d.id), len(d.ring))
			}
		}
		return 0
	})
	m.SetObs(o)
	m.Run()
	t.Logf("due boundaries at ticks: %d read without replay, %d replayed", readOnly, replayed)
	if readOnly == 0 || replayed == 0 {
		t.Fatalf("gauge paths not both exercised: %d read-only, %d replayed", readOnly, replayed)
	}
}

// TestBlockedCountUnderEviction checks the maintained blocked-request
// count (the waiting_txns gauge's source) against a walk of the wait map
// after every admission epoch of a service run that evicts blocked
// transactions.
func TestBlockedCountUnderEviction(t *testing.T) {
	cfg := svcConfig(20.0)
	pol := *cfg.Service
	pol.EvictOnOverload = true
	cfg.Service = &pol
	m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()),
		workload.NewExp1(cfg.NumFiles), sim.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	m.SetEpochHook(func(admit.EpochStats) {
		n := 0
		for _, l := range m.blocked {
			n += len(l)
		}
		if n != m.nblocked {
			t.Fatalf("at %v: maintained blocked count %d, map holds %d", m.eng.Now(), m.nblocked, n)
		}
	})
	m.Run()
	if m.Service().Stats().Evictions == 0 {
		t.Fatal("no evictions: the run does not exercise removeWaiter")
	}
}

// TestSamplingTickAllocFree pins the sampling tick of a running machine
// (every gauge plus the row store) at zero allocations per tick: what
// remains is the row store's once-per-slab refill, well under one per
// tick on average.
func TestSamplingTickAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNodes = 16
	cfg.DD = 16
	cfg.ArrivalRate = 0.15
	cfg.Duration = 300_000 * sim.Millisecond
	m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	m.SetObs(o)
	var avg float64
	m.eng.ScheduleAt(200_500*sim.Millisecond, func(now sim.Time) {
		avg = testing.AllocsPerRun(200, func() { o.SampleNow(now) })
	})
	m.Run()
	if avg != 0 {
		t.Fatalf("sampling tick: %v allocations per tick, want 0", avg)
	}
}

// BenchmarkDPNReplay is the fast-forward DPN rung of the layer ladder: a
// DD=16 node with 1 and with 4 resident cohorts, synced every ~30 quanta.
func BenchmarkDPNReplay(b *testing.B) {
	q := DefaultConfig().ObjTime / 16
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("cohorts=%d", k), func(b *testing.B) {
			eng := sim.NewEngine()
			met := metrics.NewCollector(1, 0)
			d := newDPN(0, eng, met)
			for i := 0; i < k; i++ {
				d.add(&cohort{remaining: 1 << 50, quantum: q})
			}
			probe := func(sim.Time) { d.sync() }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// 29–31 quanta apart, so the replay ends at varying
				// positions in the rotation.
				eng.Schedule(sim.Time(29+i%3)*q, probe)
				eng.Step(1 << 62)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sync")
		})
	}
}
