package obs

import (
	"reflect"
	"runtime"
	"testing"

	"batchsched/internal/sim"
)

// TestNilObserverIsSafe: every method of the disabled (nil) observer must be
// callable — the instrumented hot paths rely on this instead of branching.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports Enabled")
	}
	if id := o.Begin("x", "txn", 1, -1, -1, 0, 0); id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	o.End(1, 0)
	o.SetSampleInterval(sim.Second)
	o.Finish(0)
	if o.Spans() != nil || o.Samples() != nil || o.Histograms() != nil {
		t.Fatal("nil observer returned non-nil recordings")
	}
	if o.Audit() != nil {
		t.Fatal("nil observer returned a non-nil audit")
	}
	var c *Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram holds observations")
	}
	var a *Audit
	a.SetClock(nil)
	a.Record(AuditEntry{})
	if a.Entries() != nil {
		t.Fatal("nil audit holds entries")
	}
}

func TestSpanLifecycle(t *testing.T) {
	o := New()
	root := o.Begin("txn", "txn", 7, -1, -1, 0, 10*sim.Millisecond)
	child := o.Begin("execute", "txn", 7, -1, 0, root, 12*sim.Millisecond)
	o.End(child, 20*sim.Millisecond)
	// Double-End must not move the end time.
	o.End(child, 99*sim.Millisecond)
	o.Finish(50 * sim.Millisecond)

	spans := o.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].End != 50*sim.Millisecond {
		t.Errorf("Finish left root open: End=%v", spans[0].End)
	}
	if spans[1].End != 20*sim.Millisecond {
		t.Errorf("double End moved the end time: %v", spans[1].End)
	}
	if spans[1].Parent != root {
		t.Errorf("child parent = %v, want %v", spans[1].Parent, root)
	}
	if d := spans[1].Duration(); d != 8*sim.Millisecond {
		t.Errorf("child duration = %v, want 8ms", d)
	}
}

func TestPhaseTotals(t *testing.T) {
	o := New()
	a := o.Begin("execute", "txn", 1, -1, 0, 0, 0)
	o.End(a, 10*sim.Millisecond)
	b := o.Begin("lock-wait", "txn", 1, -1, -1, 0, 10*sim.Millisecond)
	o.End(b, 15*sim.Millisecond)
	c := o.Begin("execute", "txn", 2, -1, 0, 0, 0)
	o.End(c, 30*sim.Millisecond)
	io := o.Begin("cohort", "io", 1, 3, 0, 0, 0)
	o.End(io, 5*sim.Millisecond)

	got := o.PhaseTotals("txn")
	want := []PhaseTotal{
		{Name: "execute", Total: 40 * sim.Millisecond, Count: 2},
		{Name: "lock-wait", Total: 5 * sim.Millisecond, Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PhaseTotals(txn) = %+v, want %+v", got, want)
	}
	if all := o.PhaseTotals(""); len(all) != 3 {
		t.Errorf("PhaseTotals(\"\") has %d phases, want 3", len(all))
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics: bucket i counts
// bounds[i-1] < v <= bounds[i], with an implicit overflow bucket above the
// last bound.
func TestHistogramBucketBoundaries(t *testing.T) {
	o := New()
	h := o.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{
		0,    // -> bucket 0 (v <= 1)
		1,    // -> bucket 0 (upper bound inclusive)
		1.01, // -> bucket 1
		10,   // -> bucket 1 (upper bound inclusive)
		10.5, // -> bucket 2
		100,  // -> bucket 2
		101,  // -> overflow
		1e9,  // -> overflow
	} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2}
	if got := h.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 0+1+1.01+10+10.5+100+101+1e9; got != want {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	// The create-on-first-use registry must hand back the same histogram.
	if o.Histogram("lat", []float64{5}) != h {
		t.Error("second Histogram(\"lat\") returned a different instance")
	}
	if len(o.Histograms()) != 1 {
		t.Errorf("registry holds %d histograms, want 1", len(o.Histograms()))
	}
}

func TestCounterRegistryDedup(t *testing.T) {
	o := New()
	c := o.Counter("grants")
	c.Inc()
	o.Counter("grants").Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %g, want 3 (dedup by name failed?)", got)
	}
}

// TestSampling drives the sampler through a real engine and checks the rows
// line up with the header and tick times.
func TestSampling(t *testing.T) {
	eng := sim.NewEngine()
	o := New()
	o.SetSampleInterval(10 * sim.Millisecond)
	c := o.Counter("events")
	depth := 0.0
	o.Gauge("depth", func() float64 { return depth })
	o.Gauges([]string{"lo", "hi"}, func(dst []float64) { dst[0], dst[1] = depth-1, depth+1 })

	// Model activity between ticks.
	eng.ScheduleAt(4*sim.Millisecond, func(sim.Time) { c.Inc(); depth = 2 })
	eng.ScheduleAt(17*sim.Millisecond, func(sim.Time) { c.Inc(); depth = 5 })

	o.StartSampling(eng)
	eng.RunUntil(25 * sim.Millisecond)
	o.Finish(25 * sim.Millisecond)

	if got, want := o.SampleHeader(), []string{"t_ms", "events", "depth", "lo", "hi"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("header = %v, want %v", got, want)
	}
	want := [][]float64{
		{0, 0, 0, -1, 1}, // tick at t=0, before any activity
		{10, 1, 2, 1, 3}, // after the t=4 event
		{20, 2, 5, 4, 6}, // after the t=17 event
		{25, 2, 5, 4, 6}, // Finish's final sample at the horizon
	}
	if got := o.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	ts, vs := o.TimeSeries("depth")
	if !reflect.DeepEqual(ts, []float64{0, 10, 20, 25}) || !reflect.DeepEqual(vs, []float64{0, 2, 5, 5}) {
		t.Fatalf("TimeSeries(depth) = %v / %v", ts, vs)
	}
	if ts, vs := o.TimeSeries("hi"); !reflect.DeepEqual(ts, []float64{0, 10, 20, 25}) || !reflect.DeepEqual(vs, []float64{1, 3, 6, 6}) {
		t.Fatalf("TimeSeries(hi) = %v / %v", ts, vs)
	}
	if ts, vs := o.TimeSeries("nope"); ts != nil || vs != nil {
		t.Fatal("TimeSeries of an unknown column returned data")
	}
}

// TestSampleRowsAllocs pins the sampled-row store: a tick allocates
// nothing while the current slab has room, and a slab refill allocates at
// most twice (the slab, and now and then the row index's growth).
func TestSampleRowsAllocs(t *testing.T) {
	o := New()
	o.Counter("events").Inc()
	for _, name := range []string{"a", "b", "c", "d"} {
		o.Gauge(name, func() float64 { return 1 })
	}
	now := sim.Time(0)
	tick := func() {
		now += sim.Millisecond
		o.SampleNow(now)
	}
	mallocs := func(ticks int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ticks; i++ {
			tick()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	tick() // the first row refills the slab
	if n := mallocs(sampleBlock - 1); n != 0 {
		t.Fatalf("%d allocations over the rest of a slab, want 0", n)
	}
	const slabs = 16
	if n := mallocs(slabs * sampleBlock); n > 2*slabs {
		t.Fatalf("%d allocations over %d slab refills, want <= %d", n, slabs, 2*slabs)
	}
	if got := len(o.Samples()); got != (slabs+1)*sampleBlock {
		t.Fatalf("%d rows stored, want %d", got, (slabs+1)*sampleBlock)
	}
}

// TestClockClamps: monotone clamping of wall-clock regression is counted,
// once per clamped span end and once per clamped sample.
func TestClockClamps(t *testing.T) {
	o := New()
	o.SetSampleInterval(sim.Second)

	id := o.Begin("txn", "txn", 1, -1, -1, 0, 10*sim.Millisecond)
	o.End(id, 5*sim.Millisecond) // wall clock ran backwards: clamp to start
	spanEnds, samples := o.ClockClamps()
	if spanEnds != 1 || samples != 0 {
		t.Fatalf("after clamped End: ClockClamps = %d, %d; want 1, 0", spanEnds, samples)
	}
	if got := o.Spans()[0]; got.End != got.Start {
		t.Fatalf("clamped span End = %v, want Start %v", got.End, got.Start)
	}

	o.SampleNow(2 * sim.Second)
	o.SampleNow(1 * sim.Second) // regressed sample tick: clamp to lastTick
	spanEnds, samples = o.ClockClamps()
	if spanEnds != 1 || samples != 1 {
		t.Fatalf("after clamped sample: ClockClamps = %d, %d; want 1, 1", spanEnds, samples)
	}

	// Forward motion never counts.
	id2 := o.Begin("txn", "txn", 2, -1, -1, 0, 3*sim.Second)
	o.End(id2, 4*sim.Second)
	o.SampleNow(5 * sim.Second)
	if se, sa := o.ClockClamps(); se != 1 || sa != 1 {
		t.Fatalf("forward motion counted as clamps: %d, %d", se, sa)
	}

	var nilO *Observer
	if se, sa := nilO.ClockClamps(); se != 0 || sa != 0 {
		t.Fatal("nil observer reports clamps")
	}
}

// TestSpansAcrossBlocks: span IDs, End, Finish and PhaseTotals address the
// right span across storage-block boundaries, and Spans returns a copy.
func TestSpansAcrossBlocks(t *testing.T) {
	o := New()
	n := 2*spanBlock + spanBlock/2
	for i := 0; i < n; i++ {
		id := o.Begin("s", "txn", int64(i+1), -1, -1, 0, sim.Time(i))
		if int(id) != i+1 {
			t.Fatalf("span %d got id %d", i, id)
		}
		if i%2 == 0 {
			o.End(id, sim.Time(i+10))
		}
	}
	o.Finish(sim.Time(5 * n))
	spans := o.Spans()
	if len(spans) != n {
		t.Fatalf("Spans() has %d spans, want %d", len(spans), n)
	}
	var total sim.Time
	for i, sp := range spans {
		want := sim.Time(i + 10)
		if i%2 == 1 {
			want = sim.Time(5 * n)
		}
		if sp.Txn != int64(i+1) || sp.End != want {
			t.Fatalf("span %d: txn %d end %v, want txn %d end %v", i, sp.Txn, sp.End, i+1, want)
		}
		total += sp.Duration()
	}
	if pt := o.PhaseTotals("txn"); len(pt) != 1 || pt[0].Count != n || pt[0].Total != total {
		t.Fatalf("PhaseTotals = %+v, want one phase of %d spans totalling %v", pt, n, total)
	}
	spans[0].End = -7
	if o.Spans()[0].End == -7 {
		t.Fatal("Spans() aliases the observer's storage")
	}
}

// TestBeginAllocsPerBlock pins the span store's growth: recording spans
// costs at most one allocation per spanBlock spans.
func TestBeginAllocsPerBlock(t *testing.T) {
	o := New()
	a := testing.AllocsPerRun(50, func() {
		for i := 0; i < spanBlock; i++ {
			o.Begin("execute", "txn", 1, -1, 0, 0, 0)
		}
	})
	if a > 1 {
		t.Fatalf("%v allocations per %d spans, want <= 1", a, spanBlock)
	}
}

// BenchmarkObsBegin measures recording one span. A fresh observer every
// 64 blocks keeps the benchmark's memory bounded at large b.N.
func BenchmarkObsBegin(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(64*spanBlock) == 0 {
			o = New()
		}
		o.Begin("execute", "txn", int64(i), -1, 0, 0, sim.Time(i))
	}
}
