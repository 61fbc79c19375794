package obs

import "batchsched/internal/sim"

// AuditEntry records one scheduler lock-request decision with enough
// context to replay "why was T7 blocked at t=1.2s": the candidate
// (conflicting-declaration) set the request was judged against, the
// contention estimates, and — for GOW — the critical path of the optimized
// order W and how this decision moved it.
type AuditEntry struct {
	// AtMS is the decision's virtual time in milliseconds.
	AtMS float64 `json:"at_ms"`
	// Scheduler is the deciding scheduler's name ("GOW", "LOW", ...).
	Scheduler string `json:"scheduler"`
	// Txn is the requesting transaction; File and Mode identify the
	// requested lock.
	Txn  int64  `json:"txn"`
	File int    `json:"file"`
	Mode string `json:"mode"`
	// Decision is "grant", "block" or "delay".
	Decision string `json:"decision"`
	// Candidates are the rival transactions the request was judged
	// against: C(q) for LOW, the would-be-oriented neighbors for GOW.
	Candidates []int64 `json:"candidates,omitempty"`
	// EQ is the request's contention estimate: E(q) for LOW, the critical
	// path |W| of the optimal chain orientation for GOW.
	EQ float64 `json:"eq,omitempty"`
	// EPs are the candidates' estimates E(p), aligned with Candidates
	// (LOW only).
	EPs []float64 `json:"eps,omitempty"`
	// CPDelta is the change of |W| relative to the scheduler's previous
	// audited decision (GOW only).
	CPDelta float64 `json:"cp_delta,omitempty"`
	// Note explains non-grants ("W orders T5 before T7", "deadlock:
	// E(q)=+Inf", ...).
	Note string `json:"note,omitempty"`
}

// Audit is an append-only decision log. The nil Audit (handed out by a
// disabled observer) absorbs records for free, so schedulers guard their
// audit bookkeeping with a single nil check.
//
// Entries are stored as pointer-free records in fixed blocks: the scheduler,
// mode and decision strings become small indices into a per-Audit name
// table, and the candidate ids, their estimates and the note are copied into
// per-Audit arenas, so the garbage collector never scans the log, growing it
// never copies it, and Record's caller may reuse its Candidates and EPs
// buffers. Entries and WriteAuditJSONL build the exported AuditEntry values.
type Audit struct {
	now    func() sim.Time
	lastMS float64
	recs   []*[auditBlock]auditRec
	n      int
	names  []string // interned Scheduler, Mode and Decision values
	cands  arena[int64]
	eps    arena[float64]
	notes  arena[byte]
}

// auditBlock is the number of records per storage block (9 KiB).
const auditBlock = 128

// auditRec is the stored form of an AuditEntry.
type auditRec struct {
	atMS, eq, cpDelta     float64
	txn, file             int64
	cands, eps, note      extent
	sched, mode, decision uint8 // indices into Audit.names
}

// arena is an append-only store of values in fixed chunks. One add's values
// stay contiguous in one chunk, so a full chunk is left with its tail
// unused rather than copied into a larger one.
type arena[T any] struct{ chunks [][]T }

// arenaChunk is the capacity of an arena chunk, in elements (a longer run
// gets a chunk of its own length).
const arenaChunk = 1024

// extent locates one add's values: chunks[chunk][off : off+n].
type extent struct{ chunk, off, n uint32 }

// add copies vs into the arena (nothing for an empty vs).
func (a *arena[T]) add(vs []T) extent {
	if len(vs) == 0 {
		return extent{}
	}
	k := len(a.chunks) - 1
	if k < 0 || cap(a.chunks[k])-len(a.chunks[k]) < len(vs) {
		a.chunks = append(a.chunks, make([]T, 0, max(arenaChunk, len(vs))))
		k++
	}
	off := len(a.chunks[k])
	a.chunks[k] = append(a.chunks[k], vs...)
	return extent{chunk: uint32(k), off: uint32(off), n: uint32(len(vs))}
}

// get returns an extent's values (nil when empty), capped so that
// appending to them cannot reach other values.
func (a *arena[T]) get(x extent) []T {
	if x.n == 0 {
		return nil
	}
	return a.chunks[x.chunk][x.off : x.off+x.n : x.off+x.n]
}

// SetClock injects the virtual clock used to stamp entries; the machine
// wires its engine's Now here.
func (a *Audit) SetClock(now func() sim.Time) {
	if a != nil {
		a.now = now
	}
}

// Record appends one decision, stamping the current clock reading. Stamps
// are clamped nondecreasing: a wall clock read from the live backend can
// regress relative to an earlier entry, and the log must stay replayable in
// order. The clamp never fires under virtual time. The entry is copied, so
// the caller keeps ownership of it and of its slices.
func (a *Audit) Record(e *AuditEntry) {
	if a == nil {
		return
	}
	at := e.AtMS
	if a.now != nil {
		at = max(a.now().Milliseconds(), a.lastMS)
		a.lastMS = at
	}
	if a.n%auditBlock == 0 {
		a.recs = append(a.recs, new([auditBlock]auditRec))
	}
	a.recs[a.n/auditBlock][a.n%auditBlock] = auditRec{
		atMS: at, eq: e.EQ, cpDelta: e.CPDelta,
		txn: e.Txn, file: int64(e.File),
		cands: a.cands.add(e.Candidates), eps: a.eps.add(e.EPs),
		note:  a.notes.add([]byte(e.Note)),
		sched: a.intern(e.Scheduler), mode: a.intern(e.Mode), decision: a.intern(e.Decision),
	}
	a.n++
}

// intern returns name's index in the name table, adding it on first use.
// The table holds the few distinct scheduler, mode and decision names; a
// 256th distinct name is a caller bug.
func (a *Audit) intern(name string) uint8 {
	for i, n := range a.names {
		if n == name {
			return uint8(i)
		}
	}
	if len(a.names) == 256 {
		panic("obs: more than 256 distinct audit scheduler, mode and decision names")
	}
	a.names = append(a.names, name)
	return uint8(len(a.names) - 1)
}

// entry builds the exported form of record i; its slices share the
// arenas' storage.
func (a *Audit) entry(i int) AuditEntry {
	r := &a.recs[i/auditBlock][i%auditBlock]
	return AuditEntry{
		AtMS: r.atMS, Scheduler: a.names[r.sched],
		Txn: r.txn, File: int(r.file), Mode: a.names[r.mode],
		Decision: a.names[r.decision], Candidates: a.cands.get(r.cands),
		EQ: r.eq, EPs: a.eps.get(r.eps), CPDelta: r.cpDelta,
		Note: string(a.notes.get(r.note)),
	}
}

// Len returns the number of recorded decisions (0 on nil).
func (a *Audit) Len() int {
	if a == nil {
		return 0
	}
	return a.n
}

// Entries returns the recorded decisions in order (nil when there are
// none). The Candidates and EPs slices share the log's storage and must not
// be modified.
func (a *Audit) Entries() []AuditEntry {
	if a == nil || a.n == 0 {
		return nil
	}
	out := make([]AuditEntry, a.n)
	for i := range out {
		out[i] = a.entry(i)
	}
	return out
}
