package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/sampler"
	"repro/internal/sweep"
)

// E5PhaseScheduleCfg reproduces Lemma 8 and Figures 1-2 for the first maxN
// rounds: the start times of the inactive and active phases of Algorithm 7,
// measured on the actual trajectory stream, against
// I(n) = 24(π+1)[(2n−4)2ⁿ+4] and A(n) = 24(π+1)[(3n−4)2ⁿ+4]. Walking the
// stream costs O(4ⁿ) segments per round n. The measurement used to be one
// cumulative walk of the trajectory stream —
// inherently serial, and the long pole of RunAllCfg. It now decomposes into
// one sweep job per round: job n replays the duration fold of the stream
// prefix up to round n's wait (algo.UniversalPhaseStart), which reproduces the walk
// bit-identically (same additions in the same order, pinned by a test in
// internal/algo) while letting the rounds compute in parallel.
func E5PhaseScheduleCfg(maxN int, cfg Config) (Table, error) {
	t := Table{
		ID:      "E5",
		Title:   "phase schedule of Algorithm 7",
		Source:  "Lemma 8, Figures 1-2",
		Columns: []string{"n", "I(n) measured", "I(n) closed", "A(n) measured", "A(n) closed", "max rel. err"},
	}
	meas, err := sweep.RunSampled(maxN, func(i int, _ sampler.Draws) ([2]float64, error) {
		inactive, active := algo.UniversalPhaseStart(i + 1)
		return [2]float64{inactive, active}, nil
	}, cfg.sweepOptions())
	if err != nil {
		return t, err
	}
	for k := 1; k <= maxN; k++ {
		measuredI, measuredA := meas[k-1][0], meas[k-1][1]
		ci, ca := bounds.InactiveStart(k), bounds.ActiveStart(k)
		errI := math.Abs(measuredI-ci) / math.Max(1, ci)
		errA := math.Abs(measuredA-ca) / math.Max(1, ca)
		t.AddRow(k, measuredI, ci, measuredA, ca, fmt.Sprintf("%.2e", math.Max(errI, errA)))
	}
	t.Notes = append(t.Notes, "measured schedule equals the closed forms to float64 round-off")
	return t, nil
}

// E6OverlapCfg reproduces Lemmas 9-10 and Figure 3: for admissible (τ, a)
// the active phase of R overlaps the peer's inactive phase by the stated
// amounts, and the overlap grows without bound with the round index. Every
// (τ, a, k) cell is an independent sweep job (closed-form, so the pool just
// evaluates them in order).
func E6OverlapCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E6",
		Title:   "active/inactive phase overlap under asymmetric clocks",
		Source:  "Lemmas 9-10, Figure 3",
		Columns: []string{"τ", "a", "k", "lemma", "overlap", "overlap/S(k)"},
	}
	type regime struct {
		tau float64
		a   int
	}
	var jobs []rowJob
	for _, re := range []regime{{0.5, 0}, {0.25, 1}, {0.62, 0}, {0.9, 0}} {
		for k := 2 * (re.a + 1); k <= 2*(re.a+1)+8; k += 2 {
			jobs = append(jobs, func() ([]any, error) {
				var (
					lemma   string
					overlap float64
				)
				switch {
				case bounds.LemmaNineApplies(k, re.a, re.tau):
					lemma = "9 (Fig 3a)"
					overlap = bounds.OverlapActiveInactive(k, re.a, re.tau)
				case bounds.LemmaTenApplies(k, re.a, re.tau):
					lemma = "10 (Fig 3b)"
					overlap = bounds.OverlapInactiveActive(k, re.a, re.tau)
				default:
					return []any{re.tau, re.a, k, "none", "-", "-"}, nil
				}
				return []any{re.tau, re.a, k, lemma, overlap,
					fmt.Sprintf("%.3f", overlap/bounds.SearchAllTime(k))}, nil
			})
		}
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"overlap grows without bound in k wherever a lemma applies, enabling Lemma 11/12",
		"τ=0.9 (t>2/3) falls in the Lemma 10 window; τ=0.5, 0.25 fall in Lemma 9 windows")
	return t, nil
}
