package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so the benchmark refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p·n samples at or below it. It fails when
// fewer than minBeyond samples lie beyond that rank (p50 needs 20 samples,
// p90 100, p99 1000). xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 1 {
		return 0, fmt.Errorf("percentile p=%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 0.99·1000 must be rank 990
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p=%g of %d samples: %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	slices.Sort(xs)
	return xs[rank-1], nil
}

// median is the nearest-rank median without the tail rule, for small
// repeated measurements (set-up repetitions).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// span is one timed call into a layer, in nanoseconds since the tracer's
// epoch.
type span struct {
	layer layer
	start int64
	end   int64
}

// selfTime is parent's duration minus the part of [parent.start,
// parent.end) that its children cover. Children may overlap or nest (a
// child inside another counts once) and may stick out of the parent (only
// the inside counts). children is sorted in place.
func selfTime(parent span, children []span) time.Duration {
	slices.SortFunc(children, func(a, b span) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var covered int64
	cur := parent.start // everything before cur is accounted for
	for _, c := range children {
		lo, hi := max(c.start, cur), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return time.Duration(parent.end - parent.start - covered)
}

// clockSpeed aggregates backend-clock seconds advanced per host second over
// a set of runs: total clock time over total host time, so long runs weigh
// in proportion to the host time they took (a mean of per-run ratios would
// let a few fast short runs dominate).
func clockSpeed(clock, host []time.Duration) float64 {
	var c, h time.Duration
	for i := range clock {
		c += clock[i]
		h += host[i]
	}
	if h <= 0 {
		return 0
	}
	return c.Seconds() / h.Seconds()
}
