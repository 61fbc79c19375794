package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// The benchmark's host shares its cores with other tenants, and their load
// moves the host's speed by a factor of two or more over minutes, so two
// runs of the same code read very different wall times. Every host-time
// figure is therefore divided by the host's current speed, measured with a
// fixed reference kernel run just before each timed job: a figure reads as
// the time the job would take on a host that runs the kernel in refNominal.
// The kernel is part of the benchmark, not of the program, so a change to
// the program cannot move it.

// refNominal is the reference host's time for one refState.run call: a
// round figure near the median on the 2-core host of README.md while that
// host ran at its faster speed.
const refNominal = 2 * time.Millisecond

// refEvent is one entry of the reference kernel's calendar.
type refEvent struct {
	at   uint64
	obj  int
	prev int32 // index of an earlier event: the chain run walks back along
}

// refState is the reference kernel's memory, allocated once so that a call
// allocates nothing: the collector's load, which the program's own garbage
// sets, does not reach the kernel.
type refState struct {
	events []refEvent
	heap   []int32 // calendar: indices into events, a binary min-heap on at
	load   map[int]uint64
}

// The sizes give the kernel a working set of a few megabytes, near the
// simulator's: on the host of README.md, when the host slowed to half speed
// a kernel with a 4096-key map and a 512-event calendar slowed less than
// the job lists did.
const (
	refEvents  = 16_000 // calendar pops per call
	refObjects = 65_536 // distinct map keys
	refPending = 8192   // calendar size
)

func newRefState() *refState {
	return &refState{
		events: make([]refEvent, refPending+refEvents),
		heap:   make([]int32, 0, refPending),
		load:   make(map[int]uint64, refObjects),
	}
}

// run is a fixed amount of work shaped like the simulator's inner loop: a
// binary-heap event calendar, map updates keyed by object, and a chain of
// earlier events it walks back through. It returns a checksum that depends
// on every step, so the work cannot be elided.
func (st *refState) run() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ev, h := st.events, st.heap[:0]
	clear(st.load)
	less := func(i, j int) bool { return ev[h[i]].at < ev[h[j]].at }
	push := func(e int32) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(i, p) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() int32 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < n && less(l, m) {
				m = l
			}
			if l+1 < n && less(l+1, m) {
				m = l + 1
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	next := int32(0)
	for ; next < refPending; next++ {
		ev[next] = refEvent{at: rnd() % 1000, obj: int(rnd() % refObjects), prev: -1}
		push(next)
	}
	var sum uint64
	for i := 0; i < refEvents; i++ {
		e := &ev[pop()]
		st.load[e.obj] += e.at
		sum += st.load[(e.obj*31)%refObjects] ^ e.at
		for k, p := 0, e.prev; k < 4 && p >= 0; k, p = k+1, ev[p].prev {
			sum += ev[p].at
		}
		ev[next] = refEvent{at: e.at + 1 + rnd()%500, obj: int(rnd() % refObjects), prev: int32(i)}
		push(next)
		next++
	}
	st.heap = h
	return sum + uint64(len(st.load))
}

// hostMeter samples the host's speed with the reference kernel, on the
// benchmark's goroutine. The live backend spreads its work over every core,
// but a kernel on every core at once tracks it worse: two kernels at once
// took twice as long as one on the 2-core host, and when that host slowed
// to half speed the live job list slowed 2.3 times, one kernel 2.25 times
// and two at once 1.9 times.
type hostMeter struct {
	st      *refState
	want    uint64 // the first call's checksum
	err     error
	samples []time.Duration
}

func newHostMeter() *hostMeter { return &hostMeter{st: newRefState()} }

// sample collects the garbage the program left, so that no collection runs
// beside the kernel, and times one kernel call. Every call must return the
// checksum of the first; err keeps the first that did not.
func (h *hostMeter) sample() {
	runtime.GC()
	start := time.Now()
	sum := h.st.run()
	h.samples = append(h.samples, time.Since(start))
	if h.want == 0 {
		h.want = sum
	}
	if sum != h.want && h.err == nil {
		h.err = fmt.Errorf("reference kernel checksum %#x, first call gave %#x", sum, h.want)
	}
}

// factor is how much slower than the reference host the host ran over the
// samples taken since mark: their median over refNominal.
func (h *hostMeter) factor(mark int) float64 {
	s := slices.Clone(h.samples[mark:])
	slices.Sort(s)
	return float64(s[(len(s)-1)/2]) / float64(refNominal)
}
