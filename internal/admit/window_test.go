package admit

import (
	"math/rand"
	"sort"
	"testing"

	"batchsched/internal/sim"
)

// oracleP95 is the sort-based nearest-rank p95 of the last w samples of
// seen (negative samples clamped to 0), 0 when seen is empty.
func oracleP95(seen []sim.Time, w int) sim.Time {
	if len(seen) > w {
		seen = seen[len(seen)-w:]
	}
	n := len(seen)
	if n == 0 {
		return 0
	}
	win := make([]sim.Time, n)
	for i, d := range seen {
		win[i] = max(d, 0)
	}
	sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
	return win[(n*95+99)/100-1]
}

// TestSojournWindowMatchesOracle: the incrementally sorted window gives the
// same p95 as sorting the last SojournWindow samples, after every sample,
// for partially filled and wrapped windows. Samples come from a small range
// so duplicates are common, and include zeros and negatives (clamped to 0).
func TestSojournWindowMatchesOracle(t *testing.T) {
	for _, w := range []int{1, 2, 7, 128, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			p := DefaultPolicy()
			p.SojournWindow = w
			s := mustService(t, p)
			spread := int64(1 + rng.Intn(2*w+3))
			var seen []sim.Time
			for i := 0; i < 3*w+50; i++ {
				d := sim.Time(rng.Int63n(spread) - spread/4)
				s.observeSojourn(d)
				seen = append(seen, d)
				if got, want := s.P95Sojourn(), oracleP95(seen, w); got != want {
					t.Fatalf("window %d seed %d sample %d: p95 %v, oracle %v", w, seed, i, got, want)
				}
				if len(s.sorted) != min(len(seen), w) {
					t.Fatalf("window %d: sorted copy holds %d samples, want %d", w, len(s.sorted), min(len(seen), w))
				}
			}
			// The sorted copy is the ring's multiset, in order.
			ring := append([]sim.Time(nil), s.soj...)
			sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
			for i := range ring {
				if ring[i] != s.sorted[i] {
					t.Fatalf("window %d seed %d: sorted copy %v is not the ring %v sorted", w, seed, s.sorted, ring)
				}
			}
		}
	}
}

// epochLoop drives a service through admission epochs the way a backend
// does: arrivals into a reused shed buffer, expiry, the overload update and
// the window refill pops, with items recycled through a free list as the
// backends recycle their pooled wrappers.
type epochLoop struct {
	s     *Service
	free  []*Item
	sheds []Shed
	rng   *sim.RNG
	next  int64
	now   sim.Time
}

func newEpochLoop(s *Service, items int) *epochLoop {
	l := &epochLoop{s: s, rng: sim.NewRNG(1)}
	for i := 0; i < items; i++ {
		l.free = append(l.free, new(Item))
	}
	return l
}

// epoch offers arrivals, then pops up to pops items.
func (l *epochLoop) epoch(arrivals, pops int) {
	pol := l.s.Policy()
	l.sheds = l.sheds[:0]
	for k := 0; k < arrivals; k++ {
		it := l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		l.next++
		*it = Item{ID: l.next, Class: pol.PickClass(l.rng), Arrived: l.now - sim.Time(k)*10*sim.Millisecond}
		l.sheds, _ = l.s.Arrive(it, l.sheds)
	}
	l.sheds = l.s.Expire(l.now, l.sheds)
	for _, sh := range l.sheds {
		l.free = append(l.free, sh.Item)
	}
	l.s.EndEpoch(l.now)
	for k := 0; k < pops; k++ {
		if it, ok := l.s.Pop(l.now); ok {
			l.free = append(l.free, it)
		}
	}
	l.now += pol.Epoch
}

// TestAdmitEpochAllocFree pins the steady-state admission epoch at zero
// allocations, with arrivals outpacing pops so that queue-full, deadline
// and overload sheds all happen in the measured epochs.
func TestAdmitEpochAllocFree(t *testing.T) {
	p := DefaultPolicy()
	p.MaxQueue = 16
	p.QueueSLO[Batch] = sim.Second
	s := mustService(t, p)
	l := newEpochLoop(s, p.MaxQueue+24)
	burst := false
	epoch := func() {
		// Bursts fill the queue past overload; quiet epochs drain it.
		if burst = !burst; burst {
			l.epoch(24, 2)
		} else {
			l.epoch(2, 12)
		}
	}
	for i := 0; i < 300; i++ {
		epoch()
	}
	before := s.Stats()
	if avg := testing.AllocsPerRun(200, epoch); avg != 0 {
		t.Fatalf("steady-state epoch: %v allocations, want 0", avg)
	}
	after := s.Stats()
	for r := ShedReason(0); r < ShedDrain; r++ {
		if after.Shed[r] == before.Shed[r] {
			t.Errorf("no %v sheds in the measured epochs", r)
		}
	}
	if after.TotalAdmitted() == before.TotalAdmitted() {
		t.Error("no admissions in the measured epochs")
	}
}

// BenchmarkAdmitEpoch measures one admission epoch at DefaultPolicy():
// four arrivals, expiry, the overload update and four window refill pops.
func BenchmarkAdmitEpoch(b *testing.B) {
	s, err := NewService(DefaultPolicy())
	if err != nil {
		b.Fatal(err)
	}
	l := newEpochLoop(s, s.Policy().MaxQueue+8)
	for i := 0; i < 300; i++ {
		l.epoch(4, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.epoch(4, 4)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
}
