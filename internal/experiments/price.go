package experiments

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// E15PriceOfSymmetry measures the role-splitting ratio with the default
// config.
func E15PriceOfSymmetry() (Table, error) { return E15PriceOfSymmetryCfg(Config{}) }

// E15PriceOfSymmetryCfg compares symmetric rendezvous (both robots run
// Algorithm 4, as the problem demands) against the asymmetric optimum the
// introduction contrasts it with: one robot waits at its initial position
// while the other searches. The asymmetric protocol needs an agreed role
// split — exactly what anonymous robots cannot have — and the ratio
// quantifies what that agreement would be worth. Every (v, φ) instance is
// an independent, cache-backed sweep job.
func E15PriceOfSymmetryCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E15",
		Title:   "price of symmetry: both-search vs. wait-and-search",
		Source:  "Section 1 (symmetric vs. asymmetric rendezvous)",
		Columns: []string{"v", "φ", "T_symmetric", "T_asymmetric", "ratio"},
	}
	const r = 0.25
	d := geom.V(1, 0)
	var jobs []rowJob
	for _, c := range []struct{ v, phi float64 }{
		{0.5, 0}, {0.75, 0}, {1, 1.0}, {1, 2.5}, {0.5, 1.5},
	} {
		jobs = append(jobs, func() ([]any, error) {
			in := sim.Instance{
				Attrs: frame.Attributes{V: c.v, Tau: 1, Phi: c.phi, Chi: frame.CCW},
				D:     d,
				R:     r,
			}
			symm, err := cfg.Cache.Rendezvous("alg4", algo.CumulativeSearch, in,
				sim.Options{Horizon: 1e5})
			if err != nil {
				return nil, fmt.Errorf("E15 symmetric %+v: %w", c, err)
			}
			asym, err := cfg.Cache.Asymmetric("alg4", "stay", algo.CumulativeSearch, algo.Stay, in,
				sim.Options{Horizon: 1e5})
			if err != nil {
				return nil, fmt.Errorf("E15 asymmetric %+v: %w", c, err)
			}
			if !symm.Met || !asym.Met {
				return nil, fmt.Errorf("E15 %+v: met sym=%v asym=%v", c, symm.Met, asym.Met)
			}
			return []any{c.v, c.phi, symm.Time, asym.Time,
				fmt.Sprintf("%.2f", symm.Time/asym.Time)}, nil
		})
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"wait-and-search reduces to plain Theorem 1 search; the ratio is what agreeing on",
		"roles would be worth — large when frames nearly agree (small μ, ratio ≫ 1), but",
		"*below 1* when frame disagreement is large: strongly opposed orientations make the",
		"symmetric motions converge directly, beating the waiting protocol; either way the",
		"asymmetric protocol is unavailable to anonymous robots (both would wait, or both search)")
	return t, nil
}

// E16VariableSpeed explores variable-speed robots with the default config.
func E16VariableSpeed() (Table, error) { return E16VariableSpeedCfg(Config{}) }

// E16VariableSpeedCfg explores the paper's other future-work axis: robots
// whose speed varies over time. Per-segment speed modulation of an
// otherwise identical twin breaks symmetry like any attribute difference;
// modulation applied to an already-feasible instance perturbs but does not
// destroy the meeting. Every scenario is an independent, cache-backed sweep
// job.
func E16VariableSpeedCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E16",
		Title:   "variable-speed robots (extension: Section 5 future work)",
		Source:  "Section 5 (future work)",
		Columns: []string{"instance", "speed factors of R′", "outcome", "t_meet"},
	}
	const r = 0.25
	d := geom.V(1, 0)
	const horizon = 5e4

	job := func(name string, attrs frame.Attributes, factors []float64, mustMeet bool) rowJob {
		return func() ([]any, error) {
			a := func() trajectory.Source {
				return frame.Reference().Apply(algo.CumulativeSearch(), geom.Zero)
			}
			b := func() trajectory.Source {
				src := attrs.Apply(algo.CumulativeSearch(), d)
				if factors != nil {
					src = trajectory.ModulateSpeed(src, factors)
				}
				return src
			}
			// The id pins both trajectories: alg4 from the origin vs. the
			// alg4 twin under attrs at d=(1,0) with the given modulation.
			id := fmt.Sprintf("e16:alg4:d=1,0:attrs=%v:factors=%s", attrs, FormatCell(factors))
			res, err := cfg.Cache.FirstMeeting(id, a, b, r, sim.Options{Horizon: horizon})
			if err != nil {
				return nil, fmt.Errorf("E16 %s: %w", name, err)
			}
			outcome, tm := "no meeting", "-"
			if res.Met {
				outcome = "met"
				tm = fmt.Sprintf("%.5g", res.Time)
			}
			if mustMeet && !res.Met {
				return nil, fmt.Errorf("E16 %s: expected meeting (gap %v)", name, res.Gap)
			}
			return []any{name, FormatCell(factors), outcome, tm}, nil
		}
	}

	ident := frame.Reference()
	feasible := frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW}
	jobs := []rowJob{
		job("identical twin (control)", ident, nil, false),
		job("identical + jitter", ident, []float64{0.8, 1.25}, false),
		job("identical + slowdown", ident, []float64{0.5}, true),
		job("v=1/2 (feasible, control)", feasible, nil, true),
		job("v=1/2 + jitter", feasible, []float64{0.9, 1.1, 1.3}, true),
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"a uniform slowdown factor is exactly a speed difference (feasible by Theorem 4);",
		"alternating jitter de-synchronises the twin like an asymmetric clock; speed noise on",
		"an already-feasible instance shifts the meeting time but not feasibility")
	return t, nil
}
