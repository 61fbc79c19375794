package main

import (
	"fmt"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/engine/live"
	"batchsched/internal/machine"
	"batchsched/internal/model"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// point is one scheduler of a workload, with its arrival rate on the
// simulator (live batches are closed and ignore it).
type point struct {
	sched string
	rate  float64
}

// workloadDef is one named workload. Its job list is rounds × points: round
// r runs every point on the same inputs (simulator seed or live batch r), so
// schedulers are compared on common random numbers.
type workloadDef struct {
	name   string
	points []point
	rounds int
	// auxRounds is the prefix of rounds that the obs and check passes rerun.
	auxRounds int

	// Simulator workloads.
	cfg machine.Config
	gen engine.Generator

	// The live workload: closed batches of batchSize transactions drawn from
	// gen up front.
	live      bool
	liveCfg   live.Config
	batchSize int
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"sim-scan", "sim-contended", "sim-service", "live-batch"}

// newWorkload builds the named workload's definition.
func newWorkload(name string) (*workloadDef, error) {
	paper := machine.DefaultConfig() // Exp-1 machine: 8 nodes, 16 files, DD=1, 2,000,000 ms
	switch name {
	case "sim-scan":
		// The DD=16 whole-file batch scan of the BenchmarkRun* configs, at
		// their mid-region rates: the calendar and the DPN ring replay do
		// the work.
		cfg := paper
		cfg.NumNodes, cfg.DD = 16, 16
		return &workloadDef{
			name:      name,
			points:    []point{{"GOW", 0.15}, {"LOW", 0.15}, {"C2PL", 0.08}, {"NODC", 0.20}},
			rounds:    120,
			auxRounds: 6,
			cfg:       cfg,
			gen:       workload.NewBatchScan(16, 32),
		}, nil
	case "sim-contended":
		// Exp-1 just below each scheduler's RT=70 s knee (GOW ~0.64, LOW
		// ~0.62, C2PL ~0.31-0.37 TPS): heavy conflict and admission retry.
		return &workloadDef{
			name:      name,
			points:    []point{{"GOW", 0.60}, {"LOW", 0.58}, {"C2PL", 0.30}},
			rounds:    60,
			auxRounds: 6,
			cfg:       paper,
			gen:       workload.NewExp1(16),
		}, nil
	case "sim-service":
		// Streaming admission under the default policy, near the sustained
		// capacity of GOW and LOW (~0.42 TPS at the default SLO).
		cfg := paper
		pol := admit.DefaultPolicy()
		cfg.Service = &pol
		cfg.Duration = 1_000_000 * sim.Millisecond
		return &workloadDef{
			name:      name,
			points:    []point{{"GOW", 0.42}, {"LOW", 0.42}},
			rounds:    50,
			auxRounds: 10,
			cfg:       cfg,
			gen:       workload.NewExp1(16),
		}, nil
	case "live-batch":
		// Closed Exp-1 batches on 8 DPN goroutines, fully declustered and
		// compute-bound.
		cfg := live.DefaultConfig()
		cfg.DD = 8
		return &workloadDef{
			name:      name,
			points:    []point{{"C2PL", 0}, {"GOW", 0}},
			rounds:    55,
			auxRounds: 6,
			gen:       workload.NewExp1(16),
			live:      true,
			liveCfg:   cfg,
			batchSize: 200,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// job is one simulation or one live batch.
type job struct {
	idx   int // position in the job list
	round int
	point point
	seed  int64 // simulator seed (shared by the round's points)
}

// jobs lays out the job list for benchmark seed seed.
func (w *workloadDef) jobs(seed int64) []job {
	out := make([]job, 0, w.rounds*len(w.points))
	for r := 0; r < w.rounds; r++ {
		s := sim.DeriveSeed(seed, fmt.Sprintf("%s/round%d", w.name, r))
		for _, p := range w.points {
			out = append(out, job{idx: len(out), round: r, point: p, seed: s})
		}
	}
	return out
}

// warmJob is the set-up's warm-up job: the first point, on inputs of a
// fixed seed, so that the warm-up costs the same whatever the benchmark
// seed and set-up time does not move with the seed's inputs. On the live
// workload it runs the batch after the last round's.
func (w *workloadDef) warmJob() job {
	return job{idx: -1, round: w.rounds, point: w.points[0], seed: sim.DeriveSeed(0, w.name+"/warm-up")}
}

// drawBatches pre-draws one closed batch per round for the live workload,
// and the warm-up job's batch after them, through gen (the workload's
// generator, possibly timed).
func (w *workloadDef) drawBatches(seed int64, gen engine.Generator) [][][]model.Step {
	if !w.live {
		return nil
	}
	src := workload.Source{Gen: gen}
	out := make([][][]model.Step, w.rounds+1)
	for r := range out {
		s := sim.DeriveSeed(seed, fmt.Sprintf("%s/round%d", w.name, r))
		if r == w.rounds {
			s = w.warmJob().seed
		}
		out[r] = src.DrawBatch(sim.NewRNG(s).Stream("workload"), w.batchSize)
	}
	return out
}
