package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/bounds"
	"repro/internal/geom"
	"repro/internal/sim"
)

// E12CoverageCfg verifies the geometric invariant behind Lemma 1: sub-round
// j of Search(k) brings the robot within ρ(j,k) of every point of the
// annulus [δ(j,k), 2δ(j,k)]. The table reports the worst probe gap relative
// to ρ — full coverage means every ratio ≤ 1. Every (k, j) sub-round is an
// independent sweep job.
func E12CoverageCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E12",
		Title:   "annulus coverage of Search(k)",
		Source:  "Lemma 1 (correctness of Algorithm 4)",
		Columns: []string{"k", "j", "δ(j,k)", "ρ(j,k)", "probes", "covered", "worst gap / ρ"},
	}
	var jobs []rowJob
	for k := 1; k <= 3; k++ {
		for j := 0; j <= 2*k-1; j++ {
			jobs = append(jobs, func() ([]any, error) {
				delta, rho := algo.RoundAnnulus(j, k)
				rep, err := analysis.CoverAnnulus(algo.SearchRound(k), delta, 2*delta, rho, 10, 20)
				if err != nil {
					return nil, fmt.Errorf("E12 k=%d j=%d: %w", k, j, err)
				}
				if !rep.FullyCovered() {
					return nil, fmt.Errorf("E12 k=%d j=%d: coverage hole at %v (gap %v > ρ=%v)",
						k, j, rep.WorstPoint, rep.WorstGap, rho)
				}
				return []any{k, j, delta, rho, rep.Queries, rep.Covered,
					fmt.Sprintf("%.3f", rep.WorstGap/rho)}, nil
			})
		}
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"every probe of every designed annulus is within its granularity (ratios ≤ 1),",
		"which is exactly the covering property Lemma 1's correctness argument needs")
	return t, nil
}

// E13CompetitiveRatioCfg measures Algorithm 4's search time against the
// omniscient offline optimum (walk straight: d − r). The paper's Theorem 1
// implies a competitive ratio of O(log(d²/r)·d/r·(1+r/d)); the table shows
// the measured ratio growing with d/r as predicted. Every (d, r) cell is an
// independent, cache-backed sweep job.
func E13CompetitiveRatioCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E13",
		Title:   "competitive ratio of Algorithm 4 vs. the offline optimum",
		Source:  "Theorem 1 (interpretation), offline optimum d − r",
		Columns: []string{"d", "r", "d/r", "T_measured", "T_offline", "ratio", "bound/offline"},
	}
	var jobs []rowJob
	for _, d := range []float64{1, 2, 4} {
		for _, r := range []float64{0.25, 0.0625} {
			jobs = append(jobs, func() ([]any, error) {
				target := geom.Polar(d, 1.9)
				bound := bounds.SearchTimeBound(d, r)
				res, err := cfg.Cache.Search("alg4", algo.CumulativeSearch, target, r,
					sim.Options{Horizon: 2*bound + 500})
				if err != nil {
					return nil, fmt.Errorf("E13 d=%v r=%v: %w", d, r, err)
				}
				if !res.Met {
					return nil, fmt.Errorf("E13 d=%v r=%v: target not found", d, r)
				}
				opt := analysis.OfflineOptimumSearch(d, r)
				ratio := analysis.CompetitiveRatio(res.Time, d, r)
				boundRatio := "n/a"
				if bound > 0 && opt > 0 {
					boundRatio = fmt.Sprintf("%.1f", bound/opt)
				}
				if !math.IsInf(ratio, 1) && bound > 0 && res.Time > bound {
					return nil, fmt.Errorf("E13 d=%v r=%v: measured exceeds Theorem 1 bound", d, r)
				}
				return []any{d, r, d / r, res.Time, opt, fmt.Sprintf("%.1f", ratio), boundRatio}, nil
			})
		}
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"no strategy without knowledge of d and r can be O(1)-competitive; the measured ratio",
		"grows roughly like (d/r)·log(d²/r), the price of total ignorance Theorem 1 quantifies")
	return t, nil
}
