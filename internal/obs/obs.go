// Package obs is the virtual-time observability layer of the simulator: a
// deterministic recorder of spans (nested intervals of virtual time), a
// registry of counters, gauges and fixed-bucket histograms sampled into
// time-series on a virtual-time interval, and a scheduler decision audit
// log. Exporters render the recording as Chrome trace_event JSON (loadable
// in chrome://tracing and Perfetto), CSV time-series, and a self-contained
// HTML report.
//
// Everything is driven by the simulation's virtual clock, so two runs with
// the same seed produce byte-identical output. A nil *Observer is the
// disabled layer: every method is nil-receiver safe and returns immediately,
// which keeps the instrumented hot paths allocation-free when observability
// is off.
//
// Naming conventions consumed by the HTML exporter: gauges named
// "<resource>_busy_ms" are treated as cumulative busy-time series and
// differenced into utilization timelines; all other gauges are plotted raw.
package obs

import (
	"sync/atomic"

	"batchsched/internal/sim"
)

// SpanID refers to a recorded span; the zero SpanID is "no span" and is what
// a disabled observer returns, so callers can thread ids around untested.
type SpanID int32

// SpanKind is a registered (name, category) pair of one Observer (see
// Kind). Recorders register their kinds once, when they attach the
// observer, and pass the kind to every Begin.
type SpanKind int32

// Span is one interval of virtual time: a transaction lifecycle phase, a
// cohort's residency at a data-processing node, or one control-node job.
// Spans are stored as pointer-free records (spanRec); Span is the exported
// view of one, built by Spans and the exporters.
type Span struct {
	// Name is the phase name ("txn", "lock-wait", "execute", "cohort",
	// "cn:request", ...).
	Name string
	// Cat is the category: "txn" (transaction lifecycle), "io" (DPN
	// cohort service), "cn" (control-node jobs).
	Cat string
	// Txn is the owning transaction id (0 when none).
	Txn int64
	// Node is the data-processing node (-1 when not node-scoped).
	Node int32
	// Extra carries a small per-span integer: the step index of an
	// execute/cohort span; -1 when unused.
	Extra int32
	// Parent is the enclosing span (0 for roots).
	Parent SpanID
	// Start and End bound the span on the virtual clock. End is -1 while
	// the span is open; Finish closes leftovers at the horizon.
	Start, End sim.Time
}

// Duration returns the span's length (0 for still-open spans).
func (s Span) Duration() sim.Time {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// spanRec is the stored form of a Span: the name and category are one
// index into the observer's kind table, so a record holds no pointers — the
// garbage collector never scans the span store, and filling a record needs
// no write barrier.
type spanRec struct {
	start, end sim.Time
	txn        int64
	parent     SpanID
	kind       SpanKind
	node       int32
	extra      int32
}

// spanKind is one entry of the kind table.
type spanKind struct{ name, cat string }

// Observer is the recording half of the layer. Create with New; a nil
// Observer is the disabled layer (all methods no-op).
type Observer struct {
	// spans holds the recording in fixed blocks of spanBlock records,
	// filled in order (only the last block is partial): appending a span
	// never copies earlier ones, and SpanID n is record n-1.
	spans  []*[spanBlock]spanRec
	nspans int
	open   int // spans not yet ended
	kinds  []spanKind
	reg    registry
	audit  Audit

	// interval is the metrics sampling period (SetSampleInterval).
	interval sim.Time
	sampling bool
	lastTick sim.Time

	// clampedSpanEnds and clampedSamples count monotone-clamp events: span
	// closes and metric samples whose clock reading ran backwards and had to
	// be clamped (see End and sample). Both stay zero under virtual time;
	// non-zero values measure wall-clock regression in the live backend.
	// Atomic so the scrape endpoint can read them from another goroutine.
	clampedSpanEnds atomic.Int64
	clampedSamples  atomic.Int64
}

// spanBlock is the number of spans per storage block: one 10 KiB
// allocation (a small-object size class) per 256 spans, and no growslice
// copy of the recording as it grows.
const spanBlock = 256

// DefaultSampleInterval is the metrics sampling period of a fresh Observer.
const DefaultSampleInterval = 1000 * sim.Millisecond

// New returns an enabled observer with the default sampling interval.
func New() *Observer {
	return &Observer{interval: DefaultSampleInterval}
}

// Enabled reports whether the observer records anything (false on nil).
func (o *Observer) Enabled() bool { return o != nil }

// SetSampleInterval sets the metrics sampling period (<= 0 disables
// sampling). Call before the run starts.
func (o *Observer) SetSampleInterval(d sim.Time) {
	if o == nil {
		return
	}
	o.interval = d
}

// Kind returns the span kind of (name, cat), registering it on first use.
// Call it when attaching the observer, not per span. A disabled observer
// returns 0, which its Begin ignores.
func (o *Observer) Kind(name, cat string) SpanKind {
	if o == nil {
		return 0
	}
	for i, k := range o.kinds {
		if k.name == name && k.cat == cat {
			return SpanKind(i)
		}
	}
	o.kinds = append(o.kinds, spanKind{name: name, cat: cat})
	return SpanKind(len(o.kinds) - 1)
}

// Lifecycle holds the span kinds both backends record: a transaction's
// lifecycle phases (category "txn") and its cohorts' residency at the
// data-processing nodes (category "io").
type Lifecycle struct {
	Txn, AdmitWait, Execute, LockWait, Commit, Cohort SpanKind
}

// LifecycleKinds registers (or finds) the lifecycle span kinds.
func (o *Observer) LifecycleKinds() Lifecycle {
	return Lifecycle{
		Txn:       o.Kind("txn", "txn"),
		AdmitWait: o.Kind("admit-wait", "txn"),
		Execute:   o.Kind("execute", "txn"),
		LockWait:  o.Kind("lock-wait", "txn"),
		Commit:    o.Kind("commit", "txn"),
		Cohort:    o.Kind("cohort", "io"),
	}
}

// Begin opens a span of a registered kind at virtual time at and returns
// its id. node and extra may be -1; parent may be 0.
func (o *Observer) Begin(kind SpanKind, txn int64, node, extra int, parent SpanID, at sim.Time) SpanID {
	if o == nil {
		return 0
	}
	if o.nspans%spanBlock == 0 {
		o.spans = append(o.spans, new([spanBlock]spanRec))
	}
	o.spans[o.nspans/spanBlock][o.nspans%spanBlock] = spanRec{
		start: at, end: -1, txn: txn, parent: parent, kind: kind,
		node: int32(node), extra: int32(extra),
	}
	o.nspans++
	o.open++
	return SpanID(o.nspans)
}

// rec returns record i (SpanID i+1).
func (o *Observer) rec(i int) *spanRec { return &o.spans[i/spanBlock][i%spanBlock] }

// view builds the exported Span of a record.
func (o *Observer) view(r *spanRec) Span {
	k := o.kinds[r.kind]
	return Span{
		Name: k.name, Cat: k.cat, Txn: r.txn, Node: r.node, Extra: r.extra,
		Parent: r.parent, Start: r.start, End: r.end,
	}
}

// End closes an open span at time at. Ending the zero span, or a span
// already ended, is a no-op. A close time before the span's start is
// clamped to the start: wall-clock sources (the live backend) are not
// guaranteed monotone across goroutines, and a negative-length span would
// corrupt the exporters. The clamp never fires under virtual time.
func (o *Observer) End(id SpanID, at sim.Time) {
	if o == nil || id == 0 {
		return
	}
	sp := o.rec(int(id - 1))
	if sp.end < 0 {
		if at < sp.start {
			at = sp.start
			o.clampedSpanEnds.Add(1)
		}
		sp.end = at
		o.open--
	}
}

// ClockClamps returns how often clock regression was clamped so far: span
// closes whose end time preceded their start, and metric samples taken at a
// reading before the previous one. Zero under virtual time; under the live
// backend a non-zero count quantifies cross-goroutine wall-clock skew.
// Safe to call from any goroutine.
func (o *Observer) ClockClamps() (spanEnds, samples int64) {
	if o == nil {
		return 0, 0
	}
	return o.clampedSpanEnds.Load(), o.clampedSamples.Load()
}

// Spans returns the recorded spans in creation order (nil when nothing was
// recorded), built fresh from the store.
func (o *Observer) Spans() []Span {
	if o == nil || o.nspans == 0 {
		return nil
	}
	out := make([]Span, o.nspans)
	for i := range out {
		out[i] = o.view(o.rec(i))
	}
	return out
}

// Audit returns the scheduler decision audit log (nil when disabled), ready
// to hand to sched.Audited implementations.
func (o *Observer) Audit() *Audit {
	if o == nil {
		return nil
	}
	return &o.audit
}

// StartSampling books the recurring metrics sample on the engine. The
// machine calls it at the start of Run; sampling events read registry state
// only, so they never perturb the simulation.
func (o *Observer) StartSampling(eng *sim.Engine) {
	if o == nil || o.interval <= 0 || o.sampling {
		return
	}
	o.sampling = true
	var tick sim.Handler
	tick = func(now sim.Time) {
		o.sample(now)
		eng.Schedule(o.interval, tick)
	}
	o.sample(eng.Now())
	eng.Schedule(o.interval, tick)
}

func (o *Observer) sample(now sim.Time) {
	// Clamp against clock regression (wall-clock sources): sample rows must
	// be nondecreasing in time or the CSV/HTML exporters would render
	// backwards series. No-op under virtual time.
	if now < o.lastTick {
		now = o.lastTick
		o.clampedSamples.Add(1)
	}
	o.lastTick = now
	o.reg.sample(now)
}

// SampleNow takes one metrics sample at the given clock reading — the
// sampling hook for backends that do not run on a sim.Engine (wall-clock
// execution). Callers drive it on their own period; Finish then takes the
// final sample as usual.
func (o *Observer) SampleNow(now sim.Time) {
	if o == nil || o.interval <= 0 {
		return
	}
	o.sampling = true
	o.sample(now)
}

// Finish seals the recording at the end of a run: it closes every span
// still open at the horizon and takes a final metrics sample.
func (o *Observer) Finish(now sim.Time) {
	if o == nil {
		return
	}
	// Spans still open at the horizon are mostly recent ones: scan
	// backwards until all of them are closed.
	for i := o.nspans - 1; o.open > 0; i-- {
		if r := o.rec(i); r.end < 0 {
			r.end = now
			o.open--
		}
	}
	if o.sampling && o.lastTick != now {
		o.sample(now)
	}
}

// PhaseTotal aggregates all spans of one name.
type PhaseTotal struct {
	// Name is the span name.
	Name string
	// Total is the summed duration over the run.
	Total sim.Time
	// Count is the number of spans.
	Count int
}

// PhaseTotals aggregates the recorded spans of one category by name, in
// first-appearance order — the per-phase virtual-time decomposition the
// paper's analysis is built on. An empty cat aggregates everything.
func (o *Observer) PhaseTotals(cat string) []PhaseTotal {
	if o == nil {
		return nil
	}
	var out []PhaseTotal
	// slot maps a kind to its row of out: kinds of one name in several
	// categories share the row; -1 is not seen yet, -2 filtered out.
	slot := make([]int, len(o.kinds))
	for k := range slot {
		slot[k] = -1
	}
	for i := 0; i < o.nspans; i++ {
		r := o.rec(i)
		if slot[r.kind] == -1 {
			slot[r.kind] = o.phaseRow(&out, r.kind, cat)
		}
		j := slot[r.kind]
		if j < 0 {
			continue
		}
		if r.end >= r.start {
			out[j].Total += r.end - r.start
		}
		out[j].Count++
	}
	return out
}

// phaseRow returns kind's row of the PhaseTotals table *out, appending a
// row for a new name, or -2 when the kind is not of category cat.
func (o *Observer) phaseRow(out *[]PhaseTotal, kind SpanKind, cat string) int {
	k := o.kinds[kind]
	if cat != "" && k.cat != cat {
		return -2
	}
	for row, pt := range *out {
		if pt.Name == k.name {
			return row
		}
	}
	*out = append(*out, PhaseTotal{Name: k.name})
	return len(*out) - 1
}
