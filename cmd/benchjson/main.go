// Command benchjson records `go test -bench` results as a named snapshot in
// a tracked JSON baseline (BENCH_core.json), so performance changes are
// reviewable in diffs instead of buried in CI logs.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkRun -benchtime 5x -benchmem . |
//	    go run ./cmd/benchjson -snapshot post -out BENCH_core.json
//
// It parses standard benchmark output lines (name, iterations, ns/op and —
// with -benchmem — B/op and allocs/op), merges the snapshot into the
// existing file, and whenever both a "pre" and a "post" snapshot are present
// recomputes the speedup section (time and allocation ratios pre/post).
//
// Compare mode gates performance regressions instead of recording:
//
//	go run ./cmd/benchjson -compare -max-regress 15 BENCH_core.json new.json
//
// It diffs the two baselines' "post" snapshots benchmark by benchmark and
// exits nonzero when any shared benchmark's ns/op regressed by more than
// -max-regress percent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type benchResult struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// EventsPerOp is the simulator's own work metric — calendar events
	// dispatched per benchmark op (b.ReportMetric(..., "events/op")) —
	// recorded so event-coalescing wins are tracked next to wall time.
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// EventsPerSecPerCore is dispatched events per wall-clock second
	// (b.ReportMetric(..., "events/sec/core")); a simulated run occupies one
	// core. Higher is better; -compare treats a drop beyond -max-regress as
	// a regression.
	EventsPerSecPerCore float64 `json:"events_per_sec_per_core,omitempty"`
	// ObsOverhead is the instrumented/bare wall-time ratio reported by
	// BenchmarkObsOverhead (b.ReportMetric(..., "obs_overhead")): 1.0 means
	// attaching the observability layer is free. -compare treats growth
	// beyond -max-regress percent as a regression, so instrumentation cost
	// creep is gated like any other slowdown.
	ObsOverhead float64 `json:"obs_overhead,omitempty"`
	// SustainedTPSAtSLO is the service-mode capacity figure reported by
	// BenchmarkSustainedTPSAtSLO (b.ReportMetric(..., "sustained_tps_at_slo")):
	// the largest open arrival rate whose run still met the default service
	// SLO. Higher is better; -compare treats a drop beyond -max-regress as a
	// regression, so open-stream capacity erosion is gated like a slowdown.
	SustainedTPSAtSLO float64 `json:"sustained_tps_at_slo,omitempty"`
	// DecisionNsPerOp is the scheduler decision latency reported by the
	// BenchmarkDecision* family (b.ReportMetric(..., "decision_ns_per_op")):
	// the wall time of one GOW/LOW lock-request decision. Lower is better;
	// -compare treats growth beyond -max-regress percent as a regression.
	DecisionNsPerOp float64 `json:"decision_ns_per_op,omitempty"`
}

type snapshot struct {
	Note    string                 `json:"note,omitempty"`
	Benches map[string]benchResult `json:"benches"`
	// GOMAXPROCS is the worker-parallelism the benchmarks ran under (parsed
	// from the standard -N benchmark-name suffix; 1 when absent) and NumCPU
	// the recording host's core count. Compare mode refuses to judge
	// core-normalized throughput (events/sec/core) across snapshots taken
	// at different GOMAXPROCS — the figures are not commensurable — and
	// says so instead of failing spuriously.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
}

type speedup struct {
	Time   float64 `json:"time"`
	Allocs float64 `json:"allocs,omitempty"`
	Events float64 `json:"events,omitempty"`
	// PerCore is post/pre events_per_sec_per_core (>1 means post pushes
	// more events through each core it occupies).
	PerCore float64 `json:"per_core,omitempty"`
	// Decision is pre/post decision_ns_per_op (>1 means post decides
	// faster).
	Decision float64 `json:"decision,omitempty"`
}

type baseline struct {
	Description string              `json:"description"`
	Snapshots   map[string]snapshot `json:"snapshots"`
	// Speedup maps benchmark name -> pre/post ratios (>1 means post is
	// faster / allocates less). Present only when both snapshots exist.
	Speedup map[string]speedup `json:"speedup,omitempty"`
}

func parseBench(r *bufio.Scanner) (map[string]benchResult, int, error) {
	out := map[string]benchResult{}
	gomaxprocs := 1 // the suffix is omitted when GOMAXPROCS is 1
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.Contains(line, "ns/op") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 { // strip -GOMAXPROCS
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				gomaxprocs = n
			}
		}
		var br benchResult
		var err error
		if br.Iterations, err = strconv.Atoi(f[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				br.NsPerOp = v
			case "B/op":
				br.BytesPerOp = v
			case "allocs/op":
				br.AllocsPerOp = v
			case "events/op":
				br.EventsPerOp = v
			case "events/sec/core":
				br.EventsPerSecPerCore = v
			case "obs_overhead":
				br.ObsOverhead = v
			case "sustained_tps_at_slo":
				br.SustainedTPSAtSLO = v
			case "decision_ns_per_op":
				br.DecisionNsPerOp = v
			}
		}
		if br.NsPerOp == 0 {
			return nil, 0, fmt.Errorf("benchjson: no ns/op on line %q", line)
		}
		out[strings.TrimPrefix(name, "Benchmark")] = br
	}
	return out, gomaxprocs, r.Err()
}

func main() {
	name := flag.String("snapshot", "post", "snapshot name to record (e.g. pre, post)")
	note := flag.String("note", "", "free-form note stored with the snapshot")
	out := flag.String("out", "BENCH_core.json", "baseline file to update")
	compare := flag.Bool("compare", false, "compare two baseline files (old.json new.json) instead of recording")
	maxRegress := flag.Float64("max-regress", 15, "with -compare: maximum tolerated ns/op regression, percent")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *maxRegress))
	}

	sc := bufio.NewScanner(os.Stdin)
	benches, gomaxprocs, err := parseBench(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	bl := baseline{
		Description: "Tracked core benchmark baseline (see DESIGN.md); regenerate with cmd/benchjson.",
		Snapshots:   map[string]snapshot{},
	}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &bl); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if bl.Snapshots == nil {
		bl.Snapshots = map[string]snapshot{}
	}
	bl.Snapshots[*name] = snapshot{
		Note: *note, Benches: benches,
		GOMAXPROCS: gomaxprocs, NumCPU: runtime.NumCPU(),
	}

	pre, okPre := bl.Snapshots["pre"]
	post, okPost := bl.Snapshots["post"]
	if okPre && okPost {
		bl.Speedup = map[string]speedup{}
		names := make([]string, 0, len(pre.Benches))
		for n := range pre.Benches {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p, ok := post.Benches[n]
			if !ok || p.NsPerOp == 0 {
				continue
			}
			s := speedup{Time: round2(pre.Benches[n].NsPerOp / p.NsPerOp)}
			if p.AllocsPerOp > 0 {
				s.Allocs = round2(pre.Benches[n].AllocsPerOp / p.AllocsPerOp)
			}
			if p.EventsPerOp > 0 {
				s.Events = round2(pre.Benches[n].EventsPerOp / p.EventsPerOp)
			}
			if q := pre.Benches[n].EventsPerSecPerCore; q > 0 && p.EventsPerSecPerCore > 0 {
				s.PerCore = round2(p.EventsPerSecPerCore / q)
			}
			if p.DecisionNsPerOp > 0 && pre.Benches[n].DecisionNsPerOp > 0 {
				s.Decision = round2(pre.Benches[n].DecisionNsPerOp / p.DecisionNsPerOp)
			}
			bl.Speedup[n] = s
		}
	}

	data, err := json.MarshalIndent(&bl, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: recorded %d benchmarks into snapshot %q of %s\n", len(benches), *name, *out)
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}

// loadBaseline reads a baseline JSON file and picks the snapshot to compare:
// "post" when present, otherwise the file's only snapshot.
func loadBaseline(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var bl baseline
	if err := json.Unmarshal(data, &bl); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if s, ok := bl.Snapshots["post"]; ok {
		return s, nil
	}
	if len(bl.Snapshots) == 1 {
		for _, s := range bl.Snapshots {
			return s, nil
		}
	}
	return snapshot{}, fmt.Errorf("%s: no \"post\" snapshot and %d snapshots to choose from", path, len(bl.Snapshots))
}

// runCompare diffs the "post" snapshots of two baseline files and returns
// the process exit code: 0 when every shared benchmark's ns/op — and, where
// both snapshots report them, events/op, events/sec/core, obs_overhead,
// sustained_tps_at_slo and decision_ns_per_op — regression stays within
// maxRegress percent, 1 otherwise. Events/op is deterministic per workload,
// so any growth there is a real coalescing loss rather than machine noise;
// events/sec/core and sustained_tps_at_slo regress by DROPPING (higher is
// better); obs_overhead and decision_ns_per_op regress by growing. The
// events/sec/core gate only runs when both snapshots were taken at the same
// GOMAXPROCS — a per-core figure from an 8-way run is not commensurable
// with one from a sequential run, so a mismatch skips that column (with a
// notice) instead of failing spuriously.
func runCompare(oldPath, newPath string, maxRegress float64) int {
	oldSnap, err := loadBaseline(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newSnap, err := loadBaseline(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	sameCores := oldSnap.GOMAXPROCS == 0 || newSnap.GOMAXPROCS == 0 ||
		oldSnap.GOMAXPROCS == newSnap.GOMAXPROCS
	if !sameCores {
		fmt.Printf("note: snapshots ran at GOMAXPROCS %d vs %d; skipping the events/sec/core gate (not commensurable per-core)\n",
			oldSnap.GOMAXPROCS, newSnap.GOMAXPROCS)
	}

	names := make([]string, 0, len(oldSnap.Benches))
	for n := range oldSnap.Benches {
		if _, ok := newSnap.Benches[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: the two snapshots share no benchmarks")
		return 2
	}
	sort.Strings(names)

	fmt.Printf("%-12s %14s %14s %9s %14s %14s %12s %12s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "events delta", "ev/s/core", "obs_ovh", "tps@slo", "decision")
	failed := false
	for _, n := range names {
		o, nw := oldSnap.Benches[n], newSnap.Benches[n]
		delta := (nw.NsPerOp/o.NsPerOp - 1) * 100
		mark := ""
		if delta > maxRegress {
			mark = "  REGRESSION"
			failed = true
		}
		evCol := "-"
		if o.EventsPerOp > 0 && nw.EventsPerOp > 0 {
			evDelta := (nw.EventsPerOp/o.EventsPerOp - 1) * 100
			evCol = fmt.Sprintf("%+.1f%%", evDelta)
			if evDelta > maxRegress {
				mark = "  REGRESSION"
				failed = true
			}
		}
		coreCol := "-"
		if o.EventsPerSecPerCore > 0 && nw.EventsPerSecPerCore > 0 && sameCores {
			coreDelta := (nw.EventsPerSecPerCore/o.EventsPerSecPerCore - 1) * 100
			coreCol = fmt.Sprintf("%+.1f%%", coreDelta)
			if -coreDelta > maxRegress {
				mark = "  REGRESSION"
				failed = true
			}
		}
		decCol := "-"
		if o.DecisionNsPerOp > 0 && nw.DecisionNsPerOp > 0 {
			decDelta := (nw.DecisionNsPerOp/o.DecisionNsPerOp - 1) * 100
			decCol = fmt.Sprintf("%+.1f%%", decDelta)
			if decDelta > maxRegress {
				mark = "  REGRESSION"
				failed = true
			}
		}
		obsCol := "-"
		if o.ObsOverhead > 0 && nw.ObsOverhead > 0 {
			obsDelta := (nw.ObsOverhead/o.ObsOverhead - 1) * 100
			obsCol = fmt.Sprintf("%+.1f%%", obsDelta)
			if obsDelta > maxRegress {
				mark = "  REGRESSION"
				failed = true
			}
		}
		tpsCol := "-"
		if o.SustainedTPSAtSLO > 0 && nw.SustainedTPSAtSLO > 0 {
			tpsDelta := (nw.SustainedTPSAtSLO/o.SustainedTPSAtSLO - 1) * 100
			tpsCol = fmt.Sprintf("%+.1f%%", tpsDelta)
			if -tpsDelta > maxRegress {
				mark = "  REGRESSION"
				failed = true
			}
		}
		fmt.Printf("%-12s %14.0f %14.0f %+8.1f%% %14s %14s %12s %12s %12s%s\n", n, o.NsPerOp, nw.NsPerOp, delta, evCol, coreCol, obsCol, tpsCol, decCol, mark)
	}
	if failed {
		fmt.Printf("FAIL: at least one benchmark regressed more than %.1f%% in ns/op, events/op, events/sec/core, obs_overhead, or decision_ns_per_op\n", maxRegress)
		return 1
	}
	fmt.Printf("OK: all %d shared benchmarks within %.1f%% of baseline\n", len(names), maxRegress)
	return 0
}
