package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"batchsched/internal/sim"
)

// auditFixture returns entry i of a varied decision log: several
// schedulers, modes and decisions; candidate lists of 0–4 ids with aligned
// or missing estimates, one list longer than an arena chunk; empty, shared
// and unique notes; negative and large file ids.
func auditFixture(i int) AuditEntry {
	e := AuditEntry{
		AtMS:      float64(i),
		Scheduler: []string{"GOW", "LOW", "LOW-K2"}[i%3],
		Txn:       int64(i*7 + 1),
		File:      []int{3, -2, 1 << 40}[i%3],
		Mode:      []string{"S", "X"}[i%2],
		Decision:  []string{"grant", "block", "delay"}[i%3],
		EQ:        float64(i) / 4,
		CPDelta:   float64(i%5) - 2,
		Note:      []string{"", "holds sufficient lock", "E(q) > E(p)", ""}[i%4],
	}
	if i%11 == 0 {
		e.Note = "W orders T" + string(rune('a'+i%26)) + " first"
	}
	n := i % 5
	if i == 300 {
		n = arenaChunk + 3
	}
	for k := 0; k < n; k++ {
		e.Candidates = append(e.Candidates, int64(i+k))
		if i%2 == 1 {
			e.EPs = append(e.EPs, float64(k)-0.5)
		}
	}
	return e
}

// TestAuditAcrossBlocks: entries recorded across storage blocks and arena
// chunks come back unchanged from Entries and WriteAuditJSONL, whatever
// the caller does to its buffers after Record.
func TestAuditAcrossBlocks(t *testing.T) {
	o := New()
	a := o.Audit()
	n := 3*auditBlock + 37
	var want []AuditEntry
	var cands []int64
	var eps []float64
	for i := 0; i < n; i++ {
		e := auditFixture(i)
		want = append(want, e)
		// Record from reused buffers, then clobber them.
		cands = append(cands[:0], e.Candidates...)
		eps = append(eps[:0], e.EPs...)
		rec := e
		rec.Candidates, rec.EPs = cands[:len(e.Candidates)], eps[:len(e.EPs)]
		if len(e.Candidates) == 0 {
			rec.Candidates = nil
		}
		if len(e.EPs) == 0 {
			rec.EPs = nil
		}
		a.Record(&rec)
		for k := range cands {
			cands[k] = -99
		}
		for k := range eps {
			eps[k] = -99
		}
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	got := a.Entries()
	if len(got) != n {
		t.Fatalf("Entries has %d entries, want %d", len(got), n)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("entry %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := o.WriteAuditJSONL(&gotJSON); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&wantJSON)
	for _, e := range want {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatal("WriteAuditJSONL differs from encoding the recorded entries")
	}
	// Appending to an exported slice must not reach a neighbour's values.
	if c := got[1].Candidates; len(c) > 0 {
		_ = append(c, -1)
		if again := a.Entries(); !reflect.DeepEqual(again[2], want[2]) {
			t.Fatal("appending to an exported Candidates slice changed the next entry")
		}
	}
}

// TestAuditClockStamps: with a clock injected, entries are stamped from it
// and clamped nondecreasing when it runs backwards.
func TestAuditClockStamps(t *testing.T) {
	var a Audit
	clock := []sim.Time{5 * sim.Millisecond, 9 * sim.Millisecond, 7 * sim.Millisecond, 12 * sim.Millisecond}
	i := 0
	a.SetClock(func() sim.Time { return clock[i] })
	for i = range clock {
		a.Record(&AuditEntry{AtMS: 1000, Scheduler: "LOW", Decision: "grant"})
	}
	var stamps []float64
	for _, e := range a.Entries() {
		stamps = append(stamps, e.AtMS)
	}
	if want := []float64{5, 9, 9, 12}; !reflect.DeepEqual(stamps, want) {
		t.Fatalf("stamps %v, want %v", stamps, want)
	}
}

// TestAuditRecordAllocs pins the audit store's growth: recording from
// reused buffers costs a few allocations per auditBlock entries (the
// block, and now and then an arena chunk or a block-list growth), none per
// entry.
func TestAuditRecordAllocs(t *testing.T) {
	var a Audit
	e := AuditEntry{
		Scheduler: "LOW", Mode: "X", Decision: "delay", Note: "E(q) > E(p)",
		Candidates: []int64{4, 8}, EPs: []float64{1, 2},
	}
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < auditBlock; i++ {
			a.Record(&e)
		}
	})
	if avg > 3 {
		t.Fatalf("%v allocations per %d entries, want <= 3", avg, auditBlock)
	}
}

// TestSpanKinds: Kind registers each (name, category) pair once, and
// PhaseTotals folds kinds of one name across categories when asked for
// every category.
func TestSpanKinds(t *testing.T) {
	o := New()
	a, b := o.Kind("wait", "txn"), o.Kind("wait", "cn")
	if a == b || o.Kind("wait", "txn") != a || o.Kind("wait", "cn") != b {
		t.Fatalf("kinds: %d %d, re-registered %d %d", a, b, o.Kind("wait", "txn"), o.Kind("wait", "cn"))
	}
	if lc := o.LifecycleKinds(); lc != o.LifecycleKinds() || lc.Txn == lc.Cohort {
		t.Fatalf("lifecycle kinds not stable or not distinct: %+v", lc)
	}
	o.End(o.Begin(b, 1, -1, -1, 0, 0), 4)
	o.End(o.Begin(a, 1, -1, -1, 0, 10), 13)
	if got, want := o.PhaseTotals(""), []PhaseTotal{{Name: "wait", Total: 7, Count: 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PhaseTotals(\"\") = %+v, want %+v", got, want)
	}
	if got, want := o.PhaseTotals("txn"), []PhaseTotal{{Name: "wait", Total: 3, Count: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PhaseTotals(txn) = %+v, want %+v", got, want)
	}
	sp := o.Spans()
	if sp[0].Name != "wait" || sp[0].Cat != "cn" || sp[1].Cat != "txn" {
		t.Fatalf("span views %+v", sp)
	}
}

// TestFinishClosesOpenSpans: Finish closes exactly the spans still open —
// early and late ones alike — at the horizon; ends after Finish change
// nothing.
func TestFinishClosesOpenSpans(t *testing.T) {
	o := New()
	k := o.Kind("s", "txn")
	n := 2*spanBlock + 9
	ids := make([]SpanID, n)
	for i := range ids {
		ids[i] = o.Begin(k, int64(i), -1, -1, 0, sim.Time(i))
	}
	open := map[int]bool{0: true, 1: true, spanBlock: true, n - 1: true}
	for i, id := range ids {
		if !open[i] {
			o.End(id, sim.Time(i+1))
		}
	}
	o.Finish(10 * sim.Second)
	o.End(ids[0], 3)
	o.End(ids[5], 99)
	for i, sp := range o.Spans() {
		want := sim.Time(i + 1)
		if open[i] {
			want = 10 * sim.Second
		}
		if sp.End != want {
			t.Fatalf("span %d ends at %v, want %v", i, sp.End, want)
		}
	}
}
