package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"batchsched/internal/metrics"
	"batchsched/internal/sim"
)

// RunFunc simulates one replication of one cell at the given substream
// seed. internal/experiments binds this to the paper's machine model.
type RunFunc func(c Cell, seed int64) (metrics.Summary, error)

// Progress is a snapshot of a running sweep, delivered to
// Options.OnProgress after every completed unit.
type Progress struct {
	// Done and Total count (cell, replication) units, including the ones
	// a resume skipped; Resumed is how many of Done were skipped.
	Done, Total, Resumed int
	// UnitsPerSec is this process's completion rate.
	UnitsPerSec float64
	// ETASeconds extrapolates the remaining wall time from UnitsPerSec.
	ETASeconds float64
	// VirtualPerWall is simulated seconds per wall-clock second across
	// this process's completed units — the speed ratio of the virtual
	// clock over the real one.
	VirtualPerWall float64
}

// Options configures a sweep execution.
type Options struct {
	// Workers bounds the pool (<= 0 = GOMAXPROCS).
	Workers int
	// Checkpoint is the append-only JSONL path ("" = in-memory only).
	Checkpoint string
	// Resume loads a previous checkpoint and skips its completed units.
	Resume bool
	// HaltAfter stops cleanly after that many newly executed units
	// (0 = run to completion) — the forced-resume path for tests and CI.
	HaltAfter int
	// OnProgress, when set, observes every completed unit.
	OnProgress func(Progress)
	// SeedFn overrides substream derivation (nil = DeriveSeed of the
	// spec's root seed and "cellKey/rep=R").
	SeedFn func(c Cell, rep int) int64
}

// Result is a completed (or cleanly halted) sweep execution.
type Result struct {
	// Spec is the normalized spec that ran.
	Spec Spec
	// Records are the completed units in canonical (cell, rep) order,
	// resumed and newly executed merged.
	Records []Record
	// Resumed and Executed split Records' provenance.
	Resumed, Executed int
	// Halted reports that HaltAfter stopped the sweep with units pending.
	Halted bool
}

// UnitSeed is the default substream derivation: replication rep of the
// cell runs on DeriveSeed(root, "<cell key>/rep=<rep>"). The seed depends
// only on the root seed and the cell's parameters — not on grid position,
// worker assignment or completion order — so every unit is reproducible in
// isolation.
func UnitSeed(root int64, c Cell, rep int) int64 {
	return sim.DeriveSeed(root, fmt.Sprintf("%s/rep=%d", c.Key(), rep))
}

// Run executes the spec's grid. Completed units stream to the checkpoint
// as they finish; the returned records are merged and canonically ordered
// regardless of interruptions, so WriteJSONL over them is byte-identical
// for an uninterrupted run and any kill+resume sequence.
func Run(ctx context.Context, spec Spec, run RunFunc, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	norm := spec.Norm()
	cells := norm.Cells()

	type unit struct {
		cell Cell
		rep  int
	}
	seedFn := opt.SeedFn
	if seedFn == nil {
		seedFn = func(c Cell, rep int) int64 { return UnitSeed(norm.Seed, c, rep) }
	}

	var (
		ckpt   *sink
		loaded []Record
	)
	if opt.Checkpoint != "" {
		var err error
		ckpt, loaded, err = openCheckpoint(opt.Checkpoint, norm, opt.Resume)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}
	done := make(map[[2]int]bool, len(loaded))
	for _, rec := range loaded {
		done[[2]int{rec.Cell.Index, rec.Rep}] = true
	}

	var pending []unit
	for _, c := range cells {
		for r := 0; r < norm.Reps; r++ {
			if !done[[2]int{c.Index, r}] {
				pending = append(pending, unit{c, r})
			}
		}
	}
	halted := false
	if opt.HaltAfter > 0 && len(pending) > opt.HaltAfter {
		pending = pending[:opt.HaltAfter]
		halted = true
	}

	total := len(cells) * norm.Reps
	res := &Result{Spec: norm, Records: loaded, Resumed: len(loaded), Halted: halted}
	var (
		mu          sync.Mutex
		virtualSecs float64
		start       = time.Now()
	)
	err := ForEach(ctx, opt.Workers, len(pending), func(i int) error {
		u := pending[i]
		seed := seedFn(u.cell, u.rep)
		sum, err := run(u.cell, seed)
		if err != nil {
			return fmt.Errorf("sweep: cell %d (%s) rep %d: %w", u.cell.Index, u.cell.Key(), u.rep, err)
		}
		rec := Record{Cell: u.cell, Rep: u.rep, Seed: seed, Summary: sum}
		mu.Lock()
		res.Records = append(res.Records, rec)
		res.Executed++
		virtualSecs += sum.Window.Seconds()
		if opt.OnProgress != nil {
			// Called under the lock: observers see strictly increasing
			// Done counts and need no synchronization of their own.
			elapsed := time.Since(start).Seconds()
			p := Progress{
				Done:    res.Resumed + res.Executed,
				Total:   total,
				Resumed: res.Resumed,
			}
			if elapsed > 0 {
				p.UnitsPerSec = float64(res.Executed) / elapsed
				p.VirtualPerWall = virtualSecs / elapsed
			}
			if p.UnitsPerSec > 0 {
				p.ETASeconds = float64(total-p.Done) / p.UnitsPerSec
			}
			opt.OnProgress(p)
		}
		mu.Unlock()
		if ckpt != nil {
			if err := ckpt.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	sortRecords(res.Records)
	if err != nil {
		return res, err
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return res, fmt.Errorf("sweep: checkpoint: %w", err)
		}
	}
	return res, nil
}

// Aggregates folds the result's replications into per-cell statistics.
func (r *Result) Aggregates() []Agg { return Aggregate(r.Records) }

// Complete reports whether every unit of the grid ran.
func (r *Result) Complete() bool {
	return len(r.Records) == len(r.Spec.Cells())*r.Spec.Reps
}
