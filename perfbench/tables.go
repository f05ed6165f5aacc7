package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// The tables workload is the full default suite as cmd/experiments runs it
// with its CLI defaults: all of experiments.All(), batch kernels on, one
// sweep worker per CPU, no cache. Each pass runs in a fresh process, as a
// reader's `go run ./cmd/experiments` does, so every pass pays its own
// heap growth and the peak RSS is that of one pass.

// tablesConfig is cmd/experiments' default configuration.
func tablesConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Batch: true}
}

// passResult is what a tables or sweep child reports after its timed work.
type passResult struct {
	Wall    []float64 `json:"wall"`    // seconds per timed operation
	Latency []float64 `json:"latency"` // seconds per sweep-pool job, from Config.Monitor
	Output  string    `json:"output"`  // rendered tables (tables) or JSON cells (sweep)
	Ops     int       `json:"ops"`     // simulated instances per operation (sweep)
	Err     string    `json:"err"`     // a failed operation
	Extra   []float64 `json:"extra"`   // per-grid seconds (sweep)
}

// setupSpawns is how many set-up-only processes run beside each timed
// one, so setup_s is a median over many starts.
const setupSpawns = 2

// runProcesses runs n timed child processes of one kind, each preceded by
// setupSpawns processes that only set up, and returns the timed children's
// results and the set-up times. Every process is an attempt; one that
// crashes is counted as failed and left out of the returned measurements.
func runProcesses(e *env, kind string, n int, out *outcome) ([]childRun, []passResult, []float64, error) {
	var runs []childRun
	var results []passResult
	var setups []float64
	spawn := func(args ...string) (childRun, bool, error) {
		out.attempted++
		run, err := runChild(e.child(append([]string{kind, "-seed", fmt.Sprint(e.seed)}, args...)...), nil)
		if err != nil {
			return run, false, err
		}
		if run.crash != "" {
			out.failed++
			out.fail("%s process crashed: %s", kind, run.crash)
			return run, false, nil
		}
		return run, true, nil
	}
	for i := 0; i < n; i++ {
		for k := 0; k < setupSpawns; k++ {
			run, ok, err := spawn("-setup-only")
			if err != nil {
				return nil, nil, nil, err
			}
			if ok {
				setups = append(setups, run.setup.Seconds())
			}
		}
		run, ok, err := spawn()
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			continue
		}
		var res passResult
		if err := json.Unmarshal(run.output, &res); err != nil {
			out.failed++
			out.fail("%s process output unreadable: %v", kind, err)
			continue
		}
		runs = append(runs, run)
		results = append(results, res)
		setups = append(setups, run.setup.Seconds())
	}
	return runs, results, setups, nil
}

func childTables(seed int64, setupOnly bool) error {
	cfg := tablesConfig(seed)
	cfg.Pool = sweep.NewPool(cfg.Workers)
	defer cfg.Pool.Close()
	cfg.Monitor = &sweep.Monitor{}
	fmt.Println("ready")
	if setupOnly {
		return nil
	}
	var buf bytes.Buffer
	start := time.Now()
	err := experiments.RunAllCfg(&buf, false, cfg)
	res := passResult{Wall: []float64{time.Since(start).Seconds()}, Latency: cfg.Monitor.Durations(), Output: buf.String()}
	if err != nil {
		res.Err = err.Error()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// tablesReference renders the suite serially with the scalar path: the
// bytes every timed pass must reproduce.
func tablesReference(seed int64) (string, error) {
	cfg := tablesConfig(seed)
	cfg.Workers, cfg.Batch = 1, false
	var buf bytes.Buffer
	err := experiments.RunAllCfg(&buf, false, cfg)
	return buf.String(), err
}

// goldenSeed is the seed internal/experiments/testdata/golden_runall_seed7.txt
// was rendered at.
const goldenSeed = 7

func runTables(e *env) (*outcome, error) {
	out := newOutcome()
	runs, results, setups, err := runProcesses(e, "tables", e.seconds, out)
	if err != nil {
		return nil, err
	}

	ref, err := tablesReference(e.seed)
	if err != nil {
		return nil, fmt.Errorf("reference render: %w", err)
	}
	var golden []byte
	if e.seed == goldenSeed {
		golden, err = os.ReadFile(filepath.Join(e.root, "internal/experiments/testdata/golden_runall_seed7.txt"))
		if err != nil {
			return nil, err
		}
		if ref != string(golden) {
			out.fail("tables: seed %d serial scalar render differs from golden_runall_seed7.txt", e.seed)
		}
	}

	var walls, rss, lat []float64
	for i, res := range results {
		switch {
		case res.Err != "":
			out.failed++
			out.fail("tables pass %d: %s", i, res.Err)
		case res.Output != ref:
			out.failed++
			out.fail("tables pass %d: output differs from the Workers=1, batch-off render", i)
		}
		walls = append(walls, res.Wall...)
		rss = append(rss, runs[i].rssMB)
		lat = append(lat, res.Latency...)
	}
	wall := median(walls)
	setSetupMetrics(out, walls, setups, rss, lat, float64(len(experiments.All()))/wall)
	fmt.Printf("tables: %d passes, one process each, %d sweep workers, %d tables per pass\n",
		len(results), runtime.GOMAXPROCS(0), len(experiments.All()))
	fmt.Printf("  wall_s  median %.4f s, quartile spread %s\n", wall, spread(walls))
	fmt.Printf("  setup_s median %.5f s over %d process starts (exec to ready: pool start and config)\n", median(setups), len(setups))
	fmt.Printf("  pool job latency p50 %.4f ms, p99 %.2f ms over %d jobs\n", 1e3*analysis.Quantile(lat, 0.5), 1e3*analysis.Quantile(lat, 0.99), len(lat))
	if golden != nil {
		fmt.Println("  output checked against the serial scalar render and golden_runall_seed7.txt")
	} else {
		fmt.Println("  output checked against the serial scalar render (the golden file is checked at seed 7)")
	}
	return out, nil
}

// setSetupMetrics fills the end-to-end metrics shared by the tables and
// sweep workloads: per-operation wall, median job latency, peak RSS and
// process set-up time, medians over the workload's processes.
func setSetupMetrics(out *outcome, walls, setups, rss, lat []float64, opsPerSec float64) {
	out.set("wall_s", "s", median(walls))
	out.set("ops_per_s", "1/s", opsPerSec)
	out.set("p50_ms", "ms", 1e3*analysis.Quantile(lat, 0.5))
	out.set("peak_rss_mb", "MB", median(rss))
	out.set("setup_s", "s", median(setups))
}
