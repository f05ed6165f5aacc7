package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/experiments"
)

// The known-defect probe runs the sweep example documented in the rvserved
// doc comment and ROADMAP (v=0.25:1:0.25 × d=1:3:1) on the default batch
// path. Its v = 1 cells sit on the Theorem 4 boundary (φ = 0, equal clocks
// and chirality): rendezvous is infeasible, the walk runs to the 1e6
// fallback horizon, and sim's shared tape keeps every segment up to that
// horizon — so the batch path runs out of memory. The probe runs in a child
// under an address-space ceiling so the timed workloads survive, expects
// met 0 on those cells, and reports the outcome by name on every run.
//
// The timed workloads stay on the feasible side because one infeasible
// cell costs a walk to the full horizon (about 12 s scalar per instance),
// not to keep this defect out of view.

const (
	defectName = "batch-tape-unbounded-at-theorem4-boundary"
	// probeLimitKiB is the child's address-space ceiling (1 GiB).
	probeLimitKiB = 1 << 20
	probeTimeout  = 60 * time.Second
)

var (
	probeControl = []string{"v=0.25:0.75:0.25", "d=1:3:1"}
	probeGrid    = []string{"v=0.25:1:0.25", "d=1:3:1"}
)

func childProbe() error {
	fmt.Println("ready")
	cfg := experiments.Config{Batch: true}
	// The control grid shows the ceiling leaves room for ordinary batch
	// sweeps, so an out-of-memory below is the boundary cells' doing.
	if _, err := experiments.SweepGrid(probeControl, "search", cfg); err != nil {
		return fmt.Errorf("control grid: %w", err)
	}
	fmt.Println("control ok")
	res, err := experiments.SweepGrid(probeGrid, "search", cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// probeKnownDefect runs the probe and prints its outcome. It returns an
// error only when the probe itself cannot run; a met > 0 on an infeasible
// cell is a wrong answer and fails the run's checks.
func probeKnownDefect(e *env, out *outcome) error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "bash", "-c", fmt.Sprintf(`ulimit -v %d && exec "$0" child probe`, probeLimitKiB), e.self)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	took := time.Since(start).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	control := strings.Contains(stdout.String(), "control ok\n")

	var outcome string
	switch {
	case ctx.Err() != nil:
		outcome = fmt.Sprintf("timeout (no result within %s)", probeTimeout)
	case err != nil && strings.Contains(stderr.String(), "out of memory"):
		if control {
			outcome = fmt.Sprintf("out-of-memory after %.2f s under a %d MiB address-space ceiling (control grid completed) — defect present", took, probeLimitKiB>>10)
		} else {
			outcome = "inconclusive: the control grid ran out of memory too"
		}
	case err != nil:
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return fmt.Errorf("known-defect probe: %w", err)
		}
		outcome = fmt.Sprintf("crashed (%v): %s", err, lastLine(stderr.String()))
	default:
		var res experiments.GridResult
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return fmt.Errorf("known-defect probe output: %w", jerr)
		}
		met := 0
		for _, c := range res.Cells {
			if c.Point[0] == 1 {
				met += c.Met
			}
		}
		if met == 0 {
			outcome = fmt.Sprintf("completed in %.2f s with met 0 on every v=1 cell, as Theorem 4 predicts — defect fixed", took)
		} else {
			outcome = fmt.Sprintf("THEOREM 4 VIOLATED: met %d on infeasible v=1 cells", met)
			out.fail("known-defect probe: met %d on cells Theorem 4 makes infeasible", met)
		}
	}
	fmt.Printf("known-defect %s: sweep %s on the batch path: %s\n", defectName, strings.Join(probeGrid, " × "), outcome)
	return nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
