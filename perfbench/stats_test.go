package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 0.50, 10},    // rank 10, 10 beyond
		{100, 0.50, 50},   // rank 50
		{100, 0.90, 90},   // rank 90, exactly 10 beyond
		{101, 0.90, 91},   // rank ceil(90.9) = 91
		{1000, 0.99, 990}, // rank 990, 10 beyond
		{1500, 0.99, 1485},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g", tc.n, tc.p, got, err, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{19, 0.50},  // rank 10, 9 beyond
		{99, 0.90},  // rank 90, 9 beyond
		{999, 0.99}, // rank ceil(989.01) = 990, 9 beyond
		{0, 0.50},
		{100, 0},
		{100, 1.5},
	} {
		if v, err := percentile(seq(tc.n), tc.p); err == nil {
			t.Errorf("percentile(1..%d, %g) = %g, want an error", tc.n, tc.p, v)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{layer: layerRun, start: 0, end: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 30, end: 35}}, 85},
		{"nested", []span{{start: 10, end: 50}, {start: 20, end: 30}}, 60},
		{"overlapping", []span{{start: 10, end: 50}, {start: 40, end: 60}}, 50},
		{"unsorted", []span{{start: 40, end: 60}, {start: 10, end: 50}, {start: 15, end: 16}}, 50},
		{"sticking out", []span{{start: -10, end: 5}, {start: 90, end: 120}}, 85},
		{"outside", []span{{start: -20, end: -10}, {start: 100, end: 110}}, 100},
		{"covering", []span{{start: -5, end: 105}, {start: 10, end: 20}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestClockSpeedIsRatioOfSums(t *testing.T) {
	// 100 s simulated in 1 s and 100 s in 3 s: 200 s in 4 s is 50, where a
	// mean of per-run ratios would give 66.7.
	clock := []time.Duration{100 * time.Second, 100 * time.Second}
	host := []time.Duration{time.Second, 3 * time.Second}
	if got := clockSpeed(clock, host); got != 50 {
		t.Errorf("clockSpeed = %g, want 50", got)
	}
	if got := clockSpeed(nil, nil); got != 0 {
		t.Errorf("clockSpeed of no runs = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
}
