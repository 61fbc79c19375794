package sim

import (
	"sort"
	"testing"
)

// tieBooking is one pre-generated booking of the tie-order property test: a
// calendar key plus an optional immediate cancel-and-rebook (which leaves a
// tombstone on the calendar for the replacement to sort past).
type tieBooking struct {
	at, prio Time
	tie      TieKey
	hasTie   bool
	rebook   bool
	alt      *tieBooking
}

// genTieScript generates booking chains over shared "buckets": instants
// where several chains collide with equal (at, prio) and tie keys that
// differ only in genealogy. Keys follow the machine's invariants — one
// quantum per bucket, anchors that are strictly short slices (Pre > Anchor-Q),
// globally unique stamps — under which tieLess is a total order.
func genTieScript(g *RNG, chains, perChain int) [][]tieBooking {
	type bucket struct {
		at, prio, q Time
	}
	nBuckets := perChain*3 + 8
	buckets := make([]bucket, nBuckets)
	at := Time(10)
	for b := range buckets {
		// Buckets advance by more than the largest priority offset, so a
		// successor booked at one bucket's instant always sorts after the
		// event booking it — the discipline the DPN model obeys. Same-instant
		// collisions come from chains sharing a bucket.
		at += Time(4 + g.Intn(4))
		q := Time(2 + g.Intn(3))
		buckets[b] = bucket{at: at, prio: at - Time(1+g.Intn(3)), q: q}
	}
	var stamp uint64
	member := func(b bucket) tieBooking {
		m := tieBooking{at: b.at}
		if g.Intn(8) == 0 {
			// An untied booking: keep its prio clear of the bucket's tie
			// events (mixing tied and untied events at one (at, prio) has
			// no model counterpart).
			p := b.prio - Time(4+g.Intn(3))
			if p < 0 {
				p = 0
			}
			m.prio = p
			return m
		}
		m.prio = b.prio
		m.hasTie = true
		k := Time(g.Intn(3))
		anchor := b.prio - k*b.q
		// Short-slice anchor: Anchor-Q < Pre < Anchor, as in real chains.
		pre := anchor - b.q + 1 + Time(g.Intn(int(b.q)-1))
		stamp++
		m.tie = TieKey{Q: b.q, Anchor: anchor, Pre: pre, Stamp: stamp}
		return m
	}
	script := make([][]tieBooking, chains)
	for s := range script {
		script[s] = make([]tieBooking, perChain)
		b := g.Intn(3)
		for k := 0; k < perChain; k++ {
			m := member(buckets[b])
			if g.Intn(6) == 0 {
				alt := member(buckets[b])
				m.rebook = true
				m.alt = &alt
			}
			script[s][k] = m
			b += 1 + g.Intn(2)
		}
	}
	return script
}

// tieRec is a live (never canceled) booking of a played script: its key,
// its booking sequence number and its chain*perChain+index code.
type tieRec struct {
	m    *tieBooking
	seq  int
	code int
}

// tieRecLess is the reference dispatch order: (at, prio, tie, seq), with the
// tie keys consulted only between two tied bookings.
func tieRecLess(a, b *tieRec) bool {
	x, y := a.m, b.m
	if x.at != y.at {
		return x.at < y.at
	}
	if x.prio != y.prio {
		return x.prio < y.prio
	}
	if x.hasTie && y.hasTie {
		if l, ok := tieLess(x.prio, &x.tie, &y.tie); ok {
			return l
		}
	}
	return a.seq < b.seq
}

// playTieScript books every chain's head, then runs the calendar with each
// handler booking its chain successor (cancel-and-rebook when the script
// says so), as the DPN model does. It returns the dispatch order as codes
// and every live booking with the sequence number the engine gave it.
func playTieScript(script [][]tieBooking) (dispatched []int, live []tieRec) {
	e := NewEngine()
	perChain := len(script[0])
	seq := 0
	schedule := func(m *tieBooking, fn Handler) *Event {
		seq++
		if m.hasTie {
			return e.ScheduleAtTie(m.at, m.prio, m.tie, fn)
		}
		return e.ScheduleAtPrio(m.at, m.prio, fn)
	}
	var book func(s, k int)
	book = func(s, k int) {
		code := s*perChain + k
		fn := func(Time) {
			dispatched = append(dispatched, code)
			if k+1 < perChain {
				book(s, k+1)
			}
		}
		m := &script[s][k]
		ev := schedule(m, fn)
		if m.rebook {
			ev.Cancel()
			m = m.alt
			schedule(m, fn)
		}
		live = append(live, tieRec{m: m, seq: seq, code: code})
	}
	for s := range script {
		book(s, 0)
	}
	e.Run(Time(1) << 50)
	return dispatched, live
}

// TestTieOrderMatchesSortedKeys is the calendar's comparator property test:
// randomized same-instant ties — including keys identical up to the
// dispatch stamp, the case that once regressed when tie keys were patched
// in after the heap sift — under cancel-and-rebook churn must dispatch in
// exactly the order of a sort of the live bookings by (at, prio, tie, seq).
func TestTieOrderMatchesSortedKeys(t *testing.T) {
	const chains, perChain = 6, 300
	stampOnly := 0
	for trial := 0; trial < 25; trial++ {
		g := NewRNG(int64(9000 + trial))
		got, live := playTieScript(genTieScript(g, chains, perChain))
		want := append([]tieRec(nil), live...)
		sort.SliceStable(want, func(i, j int) bool { return tieRecLess(&want[i], &want[j]) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: dispatched %d events, %d live bookings", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].code {
				t.Fatalf("trial %d: dispatch[%d] = chain %d event %d, sorted keys have chain %d event %d",
					trial, i, got[i]/perChain, got[i]%perChain,
					want[i].code/perChain, want[i].code%perChain)
			}
		}
		for i := 1; i < len(want); i++ {
			x, y := want[i-1].m, want[i].m
			if x.hasTie && y.hasTie && x.at == y.at && x.prio == y.prio &&
				x.tie.Q == y.tie.Q && x.tie.Anchor == y.tie.Anchor && x.tie.Pre == y.tie.Pre {
				stampOnly++
			}
		}
	}
	if stampOnly == 0 {
		t.Fatal("script never produced keys identical up to the stamp")
	}
}

// TestEngineCompactionMidDispatch forces tombstone compaction from inside a
// running handler — the calendar is rebuilt while the engine is mid-Step —
// and checks that the surviving dispatch order, a tied booking beyond the
// purge and Executed() all come through unscathed.
func TestEngineCompactionMidDispatch(t *testing.T) {
	e := NewEngine()
	const n = 400
	events := make([]*Event, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = e.Schedule(Time(i+10)*Millisecond, func(Time) { fired = append(fired, i) })
	}
	// A tied booking beyond the purge: compaction must leave it alone.
	tiedFired := false
	at := Time(n+20) * Millisecond
	e.ScheduleAtTie(at, at, TieKey{Q: Millisecond, Anchor: at, Pre: at - 1}, func(Time) { tiedFired = true })
	// The first event cancels events 1..n-2 from inside its handler; that
	// puts ~n-2 tombstones on a calendar of n live-or-dead entries, well
	// past the dead >= 64 && dead*2 > Len() threshold, so maybeCompact
	// rebuilds the heap during this very dispatch.
	pendingBefore := 0
	e.Schedule(Millisecond, func(Time) {
		for i := 1; i < n-1; i++ {
			events[i].Cancel()
		}
		pendingBefore = e.Pending()
	})
	e.Run(Second)
	if pendingBefore >= n {
		t.Fatalf("compaction did not run mid-dispatch: %d pending right after the cancels", pendingBefore)
	}
	if want := []int{0, n - 1}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if !tiedFired {
		t.Fatal("tied booking lost across mid-dispatch compaction")
	}
	// 1 canceler + 2 survivors + 1 tied event.
	if e.Executed() != 4 {
		t.Errorf("Executed = %d, want 4", e.Executed())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after run, want 0", e.Pending())
	}
}

// TestEngineExecutedUnderHeavyLazyDeletion cancels interleaved events from
// inside handlers so the calendar is thick with tombstones while it drains,
// and checks that Executed() stays dense — every handler observes exactly
// the count of live dispatches so far, with canceled events never counted.
// Tie-key stamps are derived from Executed(), so a gap here would corrupt
// genealogy keys silently.
func TestEngineExecutedUnderHeavyLazyDeletion(t *testing.T) {
	e := NewEngine()
	const n = 900
	events := make([]*Event, n)
	fired := 0
	for i := 0; i < n; i++ {
		i := i
		events[i] = e.Schedule(Time(i+1)*Millisecond, func(Time) {
			fired++
			if got := e.Executed(); got != uint64(fired) {
				t.Fatalf("handler %d: Executed = %d, want %d", i, got, fired)
			}
			// Cancel the next two still-pending survivors, so roughly two
			// thirds of the calendar dies as tombstones mid-drain.
			for j, killed := i+1, 0; j < n && killed < 2; j++ {
				if events[j] != nil && !events[j].Canceled() {
					events[j].Cancel()
					killed++
				}
			}
		})
	}
	e.Run(Second)
	if fired != (n+2)/3 {
		t.Fatalf("fired %d of %d, want every third (%d)", fired, n, (n+2)/3)
	}
	if e.Executed() != uint64(fired) {
		t.Errorf("Executed = %d, want %d", e.Executed(), fired)
	}
}

// TestEngineSteadyStateAllocFree pins the allocation audit at the engine
// layer: a warmed engine running self-rebooking tied chains with
// cancel-and-rebook churn, plus a recurring untied event, must dispatch
// with zero allocations per event.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	const chains = 4
	handlers := make([]Handler, chains)
	fires := make([]int, chains)
	for s := 0; s < chains; s++ {
		s := s
		handlers[s] = func(now Time) {
			fires[s]++
			at := now + Time(s+1)*Millisecond
			tie := TieKey{Q: Millisecond, Anchor: now, Pre: now - 1, Stamp: e.Executed()}
			ev := e.ScheduleAtTie(at, now, tie, handlers[s])
			if fires[s]%7 == 0 {
				// Cancel-and-rebook: the tombstone stays behind until it
				// surfaces or compacts; the replacement comes off the
				// event free list.
				ev.Cancel()
				e.ScheduleAtTie(at+Millisecond, now, tie, handlers[s])
			}
		}
	}
	var tick func(now Time)
	ticks := 0
	tick = func(now Time) {
		ticks++
		e.Schedule(5*Millisecond, tick)
	}
	for s := 0; s < chains; s++ {
		e.ScheduleAtPrio(Time(s+1)*Millisecond, 0, handlers[s])
	}
	e.Schedule(5*Millisecond, tick)
	// Warm the free list and heap capacity.
	horizon := Time(0)
	step := func() {
		horizon += 50 * Millisecond
		for e.Step(horizon) {
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("steady-state allocations: %v per 50ms window, want 0", avg)
	}
	if ticks == 0 || fires[0] == 0 {
		t.Fatal("steady-state loop did not actually run")
	}
}
