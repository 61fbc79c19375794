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

// Span is one interval of virtual time: a transaction lifecycle phase, a
// cohort's residency at a data-processing node, or one control-node job.
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

// Observer is the recording half of the layer. Create with New; a nil
// Observer is the disabled layer (all methods no-op).
type Observer struct {
	// spans holds the recording in fixed blocks of spanBlock spans, filled
	// in order (only the last block is partial): appending a span never
	// copies earlier ones, and SpanID n lives at index n-1 of the
	// concatenation.
	spans  [][]Span
	nspans int
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

// spanBlock is the number of spans per storage block: one allocation per
// 1024 spans, and no growslice copy of the recording as it grows.
const spanBlock = 1024

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

// Begin opens a span at virtual time at and returns its id. node and extra
// may be -1; parent may be 0.
func (o *Observer) Begin(name, cat string, txn int64, node, extra int, parent SpanID, at sim.Time) SpanID {
	if o == nil {
		return 0
	}
	n := len(o.spans)
	if n == 0 || len(o.spans[n-1]) == spanBlock {
		o.spans = append(o.spans, make([]Span, 0, spanBlock))
		n++
	}
	o.spans[n-1] = append(o.spans[n-1], Span{
		Name: name, Cat: cat, Txn: txn,
		Node: int32(node), Extra: int32(extra),
		Parent: parent, Start: at, End: -1,
	})
	o.nspans++
	return SpanID(o.nspans)
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
	i := int(id - 1)
	sp := &o.spans[i/spanBlock][i%spanBlock]
	if sp.End < 0 {
		if at < sp.Start {
			at = sp.Start
			o.clampedSpanEnds.Add(1)
		}
		sp.End = at
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

// Spans returns a copy of the recorded spans in creation order (nil when
// nothing was recorded).
func (o *Observer) Spans() []Span {
	if o == nil || o.nspans == 0 {
		return nil
	}
	out := make([]Span, 0, o.nspans)
	for _, blk := range o.spans {
		out = append(out, blk...)
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
	for _, blk := range o.spans {
		for i := range blk {
			if blk[i].End < 0 {
				blk[i].End = now
			}
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
	idx := make(map[string]int)
	for _, blk := range o.spans {
		for _, sp := range blk {
			if cat != "" && sp.Cat != cat {
				continue
			}
			i, ok := idx[sp.Name]
			if !ok {
				i = len(out)
				idx[sp.Name] = i
				out = append(out, PhaseTotal{Name: sp.Name})
			}
			out[i].Total += sp.Duration()
			out[i].Count++
		}
	}
	return out
}
