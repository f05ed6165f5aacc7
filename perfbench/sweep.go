package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// The sweep workload is a seeded Monte-Carlo grid through
// experiments.SweepGrid with the batch kernels on and no cache, entirely on
// the feasible side of Theorem 4 (v < 1). It has two parts: many short
// tapes (d = 1), where the batch kernel beats the scalar walk, and a few
// long ones (d up to 3), where it loses — so a kernel change that helps one
// and hurts the other shows. The seed drives the Monte-Carlo displacement
// directions; the axes are fixed so every seed does comparable work.

// sweepGrids are the grid specs of one sweep operation.
var sweepGrids = []struct {
	name  string
	specs []string
}{
	{"short", []string{"v=0.2:0.8:0.1", "phi=0:5.25:0.75"}},
	{"long", []string{"v=0.2:0.8:0.3", "d=1:3:1"}},
}

// sweepSamples is the number of Monte-Carlo directions per grid point.
const sweepSamples = 64

func sweepConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Samples: sweepSamples, Batch: true}
}

// runSweepGrids runs every grid of one sweep operation under cfg and
// returns the results and the wall time of each grid.
func runSweepGrids(cfg experiments.Config) ([]*experiments.GridResult, []float64, error) {
	var out []*experiments.GridResult
	var walls []float64
	for _, g := range sweepGrids {
		start := time.Now()
		res, err := experiments.SweepGrid(g.specs, "search", cfg)
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("grid %s: %w", g.name, err)
		}
		out = append(out, res)
	}
	return out, walls, nil
}

func childSweep(seed int64, setupOnly bool) error {
	cfg := sweepConfig(seed)
	cfg.Pool = sweep.NewPool(cfg.Workers)
	defer cfg.Pool.Close()
	cfg.Monitor = &sweep.Monitor{}
	fmt.Println("ready")
	if setupOnly {
		return nil
	}
	grids, walls, err := runSweepGrids(cfg)
	res := passResult{Wall: []float64{sum(walls)}, Extra: walls, Latency: cfg.Monitor.Durations()}
	if err != nil {
		res.Err = err.Error()
	} else {
		cells, merr := json.Marshal(grids)
		if merr != nil {
			return merr
		}
		res.Output = string(cells)
		for _, g := range grids {
			res.Ops += g.Points * g.Samples
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// sweepProcesses is how many fresh processes one run spreads its sweep
// operations over, from the run's time budget (one operation takes about
// 1.2 s on two cores).
func sweepProcesses(seconds int) int { return max(3, (seconds+1)/2) }

func runSweep(e *env) (*outcome, error) {
	out := newOutcome()
	runs, results, setups, err := runProcesses(e, "sweep", sweepProcesses(e.seconds), out)
	if err != nil {
		return nil, err
	}

	// The reference is the scalar path (Batch off) over the same inputs.
	refCfg := sweepConfig(e.seed)
	refCfg.Batch = false
	ref, _, err := runSweepGrids(refCfg)
	if err != nil {
		return nil, fmt.Errorf("scalar reference: %w", err)
	}

	var walls, rss, jobs, short, long []float64
	ops := 0
	for i, res := range results {
		if res.Err != "" {
			out.failed++
			out.fail("sweep process %d: %s", i, res.Err)
			continue
		}
		var got []*experiments.GridResult
		if err := json.Unmarshal([]byte(res.Output), &got); err != nil || !reflect.DeepEqual(got, ref) {
			out.failed++
			out.fail("sweep process %d: cells differ from the scalar path (Batch: false)", i)
		}
		walls = append(walls, res.Wall...)
		short = append(short, res.Extra[0])
		long = append(long, res.Extra[1])
		rss = append(rss, runs[i].rssMB)
		jobs = append(jobs, res.Latency...)
		ops = res.Ops
	}
	wall := median(walls)
	setSetupMetrics(out, walls, setups, rss, jobs, float64(ops)/wall)
	fmt.Printf("sweep: %d processes, each one operation of %d simulated instances (grids %s and %s, %d samples per point)\n",
		len(results), ops, sweepGrids[0].name, sweepGrids[1].name, sweepSamples)
	fmt.Printf("  wall_s  median %.4f s, quartile spread %s (short grid %.4f s, long grid %.4f s)\n",
		wall, spread(walls), median(short), median(long))
	fmt.Printf("  setup_s median %.5f s over %d process starts\n", median(setups), len(setups))
	fmt.Printf("  per-lane job latency p50 %.4f ms, p99 %.4f ms over %d jobs\n", 1e3*analysis.Quantile(jobs, 0.5), 1e3*analysis.Quantile(jobs, 0.99), len(jobs))
	fmt.Println("  cells checked against the scalar path (Batch: false)")
	return out, nil
}
