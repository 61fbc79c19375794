package obs

import (
	"slices"
	"sort"

	"batchsched/internal/sim"
)

// Counter is a monotonically increasing metric. The nil Counter (what a
// disabled observer hands out) absorbs updates for free.
type Counter struct {
	name string
	v    float64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d.
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations v
// with bounds[i-1] < v <= bounds[i] (upper-bound inclusive); one implicit
// overflow bucket catches v > bounds[len-1].
type Histogram struct {
	name   string
	bounds []float64
	counts []uint64
	n      uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the per-bucket counts; the last entry is the overflow
// bucket.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// gaugeEntry is one registered gauge callback: fill writes one sampled
// value per name, in order.
type gaugeEntry struct {
	names []string
	fill  func(dst []float64)
}

// registry holds the metric instruments and their sampled time-series.
type registry struct {
	counters []*Counter
	gauges   []gaugeEntry
	ncols    int // gauge columns: the names of every entry
	hists    []*Histogram
	// samples rows are [t_ms, counters..., gauges...] in registration
	// order; registration is frozen by the first sample.
	samples [][]float64
	// slab is the unused tail of the block the next rows are carved from.
	// Refilling it also reserves samples room for the block's rows, so a
	// tick allocates nothing and a refill at most twice (the slab, and now
	// and then the row index's amortized growth).
	slab []float64
}

// sampleBlock is the number of sample rows one slab allocation holds.
const sampleBlock = 32

// Counter returns the named counter, creating it on first use. Disabled
// observers return nil, which absorbs updates.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	for _, c := range o.reg.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	o.reg.counters = append(o.reg.counters, c)
	return c
}

// Gauge registers a sampled callback metric. The callback runs at every
// sampling tick; it must be cheap, and it must not change what the
// simulation does next: no events, no random draws, no state a later
// decision reads. It may bring lazily replayed state up to date, since any
// later reader would replay the same way.
func (o *Observer) Gauge(name string, fn func() float64) {
	if o == nil {
		return
	}
	o.Gauges([]string{name}, func(dst []float64) { dst[0] = fn() })
}

// Gauges registers len(names) sampled columns filled by one callback, for
// a family of gauges that is cheaper to read together; fill writes dst[i]
// for names[i]. The contract of Gauge applies.
func (o *Observer) Gauges(names []string, fill func(dst []float64)) {
	if o == nil {
		return
	}
	o.reg.gauges = append(o.reg.gauges, gaugeEntry{names: names, fill: fill})
	o.reg.ncols += len(names)
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given ascending upper bounds on first use.
func (o *Observer) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	for _, h := range o.reg.hists {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	o.reg.hists = append(o.reg.hists, h)
	return h
}

// Histograms returns the registered histograms in registration order.
func (o *Observer) Histograms() []*Histogram {
	if o == nil {
		return nil
	}
	return o.reg.hists
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// SampleHeader returns the column names of the sampled time-series:
// "t_ms" followed by the counters and gauges in registration order.
func (o *Observer) SampleHeader() []string {
	if o == nil {
		return nil
	}
	out := make([]string, 0, 1+len(o.reg.counters)+o.reg.ncols)
	out = append(out, "t_ms")
	for _, c := range o.reg.counters {
		out = append(out, c.name)
	}
	for _, g := range o.reg.gauges {
		out = append(out, g.names...)
	}
	return out
}

// Samples returns the sampled rows, one per tick, columns as in
// SampleHeader.
func (o *Observer) Samples() [][]float64 {
	if o == nil {
		return nil
	}
	return o.reg.samples
}

// TimeSeries extracts one sampled column by name, returning the tick times
// (ms) and values, or nil when the column does not exist.
func (o *Observer) TimeSeries(name string) (ts, vs []float64) {
	if o == nil {
		return nil, nil
	}
	col := -1
	for i, h := range o.SampleHeader() {
		if h == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil, nil
	}
	for _, row := range o.reg.samples {
		ts = append(ts, row[0])
		vs = append(vs, row[col])
	}
	return ts, vs
}

func (r *registry) sample(now sim.Time) {
	w := 1 + len(r.counters) + r.ncols
	if len(r.slab) < w {
		r.slab = make([]float64, w*sampleBlock)
		r.samples = slices.Grow(r.samples, sampleBlock)
	}
	row := r.slab[:0:w]
	r.slab = r.slab[w:]
	row = append(row, now.Milliseconds())
	for _, c := range r.counters {
		row = append(row, c.v)
	}
	for _, g := range r.gauges {
		row = row[:len(row)+len(g.names)]
		g.fill(row[len(row)-len(g.names):])
	}
	r.samples = append(r.samples, row)
}
