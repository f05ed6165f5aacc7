package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The experiment functions are self-checking: each returns an error when a
// paper claim fails to reproduce (bound exceeded, feasible instance that
// never meets, prediction/simulation disagreement). The tests here run them
// and validate table structure plus a few cross-cutting invariants.

func mustRun(t *testing.T, f func() (Table, error)) Table {
	t.Helper()
	table, err := f()
	if err != nil {
		t.Fatalf("experiment failed: %v", err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("experiment produced no rows")
	}
	for i, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(table.Columns))
		}
	}
	if table.ID == "" || table.Title == "" || table.Source == "" {
		t.Error("table metadata incomplete")
	}
	return table
}

func TestE1SearchScaling(t *testing.T) {
	table := mustRun(t, E1SearchScaling)
	// Every non-vacuous measured/bound ratio must be < 1 (Theorem 1).
	for _, row := range table.Rows {
		ratio := row[5]
		if strings.HasPrefix(ratio, "n/a") {
			continue
		}
		if !strings.HasPrefix(ratio, "0.") {
			t.Errorf("measured/bound ratio %q not < 1", ratio)
		}
	}
}

// TestE1RejectsOverflowingSamples: 8 cells × 2⁶¹ samples wraps int to 0;
// E1 must reject the sample count on both paths instead of slicing an
// empty result.
func TestE1RejectsOverflowingSamples(t *testing.T) {
	for _, batch := range []bool{false, true} {
		if _, err := E1SearchScalingCfg(Config{Samples: 1 << 61, Batch: batch}); err == nil {
			t.Errorf("batch=%v: 2⁶¹ samples accepted", batch)
		}
	}
}

func TestE2Durations(t *testing.T) {
	table := mustRun(t, E2Durations)
	for _, row := range table.Rows {
		if !strings.Contains(row[4], "e-1") && row[4] != "0.00e+00" {
			t.Errorf("%s %s: relative error %q above round-off", row[0], row[1], row[4])
		}
	}
}

func TestE3SameChirality(t *testing.T) {
	table := mustRun(t, E3SameChirality)
	infeasible := 0
	for _, row := range table.Rows {
		if strings.Contains(row[3], "infeasible") {
			infeasible++
		}
	}
	if infeasible != 1 {
		t.Errorf("expected exactly one infeasible cell (v=1, φ=0), got %d", infeasible)
	}
}

func TestE4OppositeChirality(t *testing.T) {
	table := mustRun(t, E4OppositeChirality)
	if got := table.Rows[len(table.Rows)-1][3]; !strings.Contains(got, "infeasible") {
		t.Errorf("v=1 row should be infeasible, got %q", got)
	}
}

func TestE5PhaseSchedule(t *testing.T) {
	table, err := E5PhaseScheduleN(7) // full 12 rounds cost seconds; 7 suffices
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[1] != row[2] && !strings.Contains(row[5], "e-1") {
			t.Errorf("round %s: measured %s vs closed %s with error %s",
				row[0], row[1], row[2], row[5])
		}
	}
}

func TestE6Overlap(t *testing.T) {
	table := mustRun(t, E6Overlap)
	applied := 0
	for _, row := range table.Rows {
		if row[3] != "none" {
			applied++
		}
	}
	if applied < 10 {
		t.Errorf("only %d rows with an applicable lemma, want >= 10", applied)
	}
}

func TestE7UniversalRounds(t *testing.T) {
	mustRun(t, E7UniversalRounds) // internal check: round ≤ k* or error
}

func TestE8Feasibility(t *testing.T) {
	table := mustRun(t, E8Feasibility)
	if len(table.Rows) != 16 {
		t.Errorf("grid has %d cells, want 16", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[6] != "yes" {
			t.Errorf("disagreement row: %v", row)
		}
	}
}

func TestE9Baselines(t *testing.T) {
	table := mustRun(t, E9Baselines)
	for _, row := range table.Rows {
		if row[2] == "MISS" {
			t.Errorf("Algorithm 4 missed at d=%s r=%s", row[0], row[1])
		}
	}
	// The oblivious baselines must miss somewhere (that is the point).
	misses := 0
	for _, row := range table.Rows {
		for _, cell := range row[4:] {
			if cell == "MISS" {
				misses++
			}
		}
	}
	if misses == 0 {
		t.Error("no baseline ever missed; workload does not separate the strategies")
	}
}

func TestE10Gathering(t *testing.T) {
	table := mustRun(t, E10Gathering)
	// The infeasible-pair instance must show a capped pair count.
	capped := false
	for _, row := range table.Rows {
		if strings.Contains(row[0], "identical") && strings.HasPrefix(row[1], "2 / 3") {
			capped = true
		}
	}
	if !capped {
		t.Error("infeasible pair did not cap the pairs-met count")
	}
}

func TestE11LineVsPlane(t *testing.T) {
	table := mustRun(t, E11LineVsPlane)
	for _, row := range table.Rows {
		switch {
		case strings.HasPrefix(row[0], "none"):
			for _, cell := range row[1:] {
				if cell != "no meeting" {
					t.Errorf("identical robots row: %v", row)
				}
			}
		case strings.HasPrefix(row[0], "direction"):
			if row[1] == "no meeting" || row[2] == "no meeting" || row[3] != "no meeting" {
				t.Errorf("direction row must be (met, met, no meeting): %v", row)
			}
		default:
			for _, cell := range row[1:] {
				if cell == "no meeting" {
					t.Errorf("%s row should meet everywhere: %v", row[0], row)
				}
			}
		}
	}
}

func TestE12Coverage(t *testing.T) {
	table := mustRun(t, E12Coverage)
	for _, row := range table.Rows {
		if row[4] != row[5] {
			t.Errorf("k=%s j=%s: %s probes but %s covered", row[0], row[1], row[4], row[5])
		}
	}
}

func TestE13CompetitiveRatio(t *testing.T) {
	mustRun(t, E13CompetitiveRatio)
}

func TestE14FaultInjection(t *testing.T) {
	table := mustRun(t, E14FaultInjection)
	if table.Rows[0][1] != "no meeting" {
		t.Error("fault-free control must not meet")
	}
	for _, row := range table.Rows[1:] {
		if row[1] != "met" {
			t.Errorf("faulted instance did not meet: %v", row)
		}
	}
}

func TestE15PriceOfSymmetry(t *testing.T) {
	table := mustRun(t, E15PriceOfSymmetry)
	// The asymmetric column is the same search instance throughout.
	first := table.Rows[0][3]
	for _, row := range table.Rows {
		if row[3] != first {
			t.Errorf("asymmetric time varies: %s vs %s", row[3], first)
		}
	}
}

func TestE16VariableSpeed(t *testing.T) {
	table := mustRun(t, E16VariableSpeed)
	if table.Rows[0][2] != "no meeting" {
		t.Error("unmodulated identical twin must not meet")
	}
}

func TestA1FixedStepDetector(t *testing.T) {
	table := mustRun(t, A1FixedStepDetector)
	last := table.Rows[len(table.Rows)-1]
	if last[0] != "safe-advance" || last[1] != "yes" {
		t.Errorf("safe-advance row wrong: %v", last)
	}
}

func TestA2NoFinalWait(t *testing.T) {
	table := mustRun(t, A2NoFinalWait)
	for _, row := range table.Rows {
		if row[1] != row[2] {
			t.Errorf("k=%s: with-wait duration %s != closed form %s", row[0], row[1], row[2])
		}
	}
}

func TestA3NoReversePass(t *testing.T) {
	mustRun(t, A3NoReversePass)
}

func TestRunOneAndRenderers(t *testing.T) {
	var text, md bytes.Buffer
	if err := RunOne("E2", &text, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Lemma 2") {
		t.Error("text render missing source")
	}
	if err := RunOne("E2", &md, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "## E2") || !strings.Contains(md.String(), "| --- |") {
		t.Error("markdown render malformed")
	}
	if err := RunOne("nope", &text, false); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestAllHasUniqueOrderedIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil {
			t.Errorf("experiment %s has nil runner", r.ID)
		}
	}
	if len(seen) != 19 {
		t.Errorf("expected 19 experiments, got %d", len(seen))
	}
}
