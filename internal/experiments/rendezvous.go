package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
)

// E3SameChiralityCfg reproduces Theorem 2 for χ = +1: rendezvous time of
// Algorithm 4 under sweeps of v and φ, against the bound
// 6(π+1)·log(d²/(μr))·d²/(μr). The μ = 0 cell (v = 1, φ = 0) is infeasible.
// Every (v, φ) cell is an independent sweep job.
func E3SameChiralityCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E3",
		Title:   "rendezvous with symmetric clocks, equal chiralities",
		Source:  "Theorem 2 (χ=+1), Lemma 6",
		Columns: []string{"v", "φ", "μ", "T_measured", "T_bound", "measured/bound"},
	}
	const d, r = 1.0, 0.25
	var jobs []rowJob
	for _, v := range []float64{0.25, 0.5, 0.75, 1} {
		for _, phi := range []float64{0, math.Pi / 3, 2 * math.Pi / 3, math.Pi} {
			jobs = append(jobs, func() ([]any, error) {
				mu := geom.Mu(v, phi)
				bound := bounds.RendezvousBoundSameChirality(d, r, v, phi)
				if mu == 0 {
					return []any{v, phi, mu, "never (infeasible)", "+Inf", "n/a"}, nil
				}
				in := sim.Instance{
					Attrs: frame.Attributes{V: v, Tau: 1, Phi: phi, Chi: frame.CCW},
					D:     geom.V(d, 0),
					R:     r,
				}
				horizon := 2*bound + 2000
				if math.IsInf(horizon, 1) {
					horizon = 1e6
				}
				res, err := cfg.Cache.Rendezvous("alg4", algo.CumulativeSearch, in,
					sim.Options{Horizon: horizon})
				if err != nil {
					return nil, fmt.Errorf("E3 v=%v φ=%v: %w", v, phi, err)
				}
				if !res.Met {
					return nil, fmt.Errorf("E3 v=%v φ=%v: feasible instance did not meet", v, phi)
				}
				ratio := "n/a (bound vacuous)"
				if bound > 0 {
					ratio = fmt.Sprintf("%.3f", res.Time/bound)
				}
				return []any{v, phi, mu, res.Time, bound, ratio}, nil
			})
		}
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"larger μ (more frame disagreement) speeds up rendezvous; only μ=0 never meets")
	return t, nil
}

// E4OppositeChiralityCfg reproduces Theorem 2 for χ = −1: the rendezvous
// time scales like 1/(1−v) as v → 1, and v = 1 is infeasible. φ is swept to
// show the bound is uniform in orientation (Lemma 7 maximises over φ).
// Every (v, φ) cell is an independent sweep job.
func E4OppositeChiralityCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "rendezvous with symmetric clocks, opposite chiralities",
		Source:  "Theorem 2 (χ=−1), Lemma 7",
		Columns: []string{"v", "φ", "1/(1−v)", "T_measured", "T_bound", "measured/bound"},
	}
	const d, r = 1.0, 0.25
	var jobs []rowJob
	for _, v := range []float64{0.25, 0.5, 0.75, 0.875} {
		for _, phi := range []float64{0, math.Pi / 2, math.Pi} {
			jobs = append(jobs, func() ([]any, error) {
				bound := bounds.RendezvousBoundOppositeChirality(d, r, v)
				in := sim.Instance{
					Attrs: frame.Attributes{V: v, Tau: 1, Phi: phi, Chi: frame.CW},
					D:     geom.V(d, 0),
					R:     r,
				}
				res, err := cfg.Cache.Rendezvous("alg4", algo.CumulativeSearch, in,
					sim.Options{Horizon: 2*bound + 2000})
				if err != nil {
					return nil, fmt.Errorf("E4 v=%v φ=%v: %w", v, phi, err)
				}
				if !res.Met {
					return nil, fmt.Errorf("E4 v=%v φ=%v: feasible instance did not meet", v, phi)
				}
				ratio := "n/a"
				if bound > 0 {
					ratio = fmt.Sprintf("%.3f", res.Time/bound)
				}
				return []any{v, phi, 1 / (1 - v), res.Time, bound, ratio}, nil
			})
		}
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	// The infeasible edge: v = 1 with an adversarial displacement.
	t.AddRow(1.0, math.Pi/2, "∞", "never (infeasible)", "+Inf", "n/a")
	t.Notes = append(t.Notes,
		"bound grows as 1/(1−v); v=1 with χ=−1 is infeasible for every φ (Theorem 4)")
	return t, nil
}
