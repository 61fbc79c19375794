package main

import (
	"testing"
	"time"
)

func TestRefKernelRepeats(t *testing.T) {
	a, b := newRefState(), newRefState()
	first := a.run()
	if again, other := a.run(), b.run(); again != first || other != first {
		t.Fatalf("reference kernel checksums %#x, %#x, %#x; want all equal", first, again, other)
	}
	if n := testing.AllocsPerRun(5, func() { a.run() }); n != 0 {
		t.Errorf("reference kernel allocates %v times a call; want 0", n)
	}
}

func TestHostMeterSlowdownIsMedian(t *testing.T) {
	h := &hostMeter{samples: []time.Duration{
		9 * refNominal, // an earlier pass, left out by the mark
		refNominal, 3 * refNominal, 2 * refNominal, 40 * refNominal,
	}}
	// Median of four is the lower middle one: 2.
	if got := h.factor(1); got != 2 {
		t.Errorf("factor = %g, want 2", got)
	}
	m := newHostMeter()
	m.sample()
	m.sample()
	if len(m.samples) != 2 || m.err != nil || m.factor(0) <= 0 {
		t.Errorf("meter: %d samples, err %v, factor %g", len(m.samples), m.err, m.factor(0))
	}
}

func TestScaledDividesHostTimes(t *testing.T) {
	o := outcome{rawHost: 8 * time.Millisecond, host: 8 * time.Millisecond, newDur: 2 * time.Millisecond,
		clock: 6 * time.Millisecond, rts: []float64{4, 6}}
	sim := o.scaled(2, false)
	if sim.host != 4*time.Millisecond || sim.newDur != time.Millisecond || sim.rawHost != o.rawHost {
		t.Errorf("sim scaled: host %v, newDur %v, raw %v", sim.host, sim.newDur, sim.rawHost)
	}
	if sim.clock != o.clock || sim.rts[0] != 4 {
		t.Errorf("sim scaled moved the virtual clock: %v, %v", sim.clock, sim.rts)
	}
	live := o.scaled(2, true)
	if live.clock != 3*time.Millisecond || live.rts[0] != 2 || live.rts[1] != 3 || o.rts[0] != 4 {
		t.Errorf("live scaled: clock %v, rts %v (original %v)", live.clock, live.rts, o.rts)
	}
}
