package experiments

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/gather"
	"repro/internal/geom"
	"repro/internal/line"
	"repro/internal/sim"
)

// E10GatheringCfg explores the paper's stated open direction (Section 5):
// deterministic gathering of more than two robots with minimal knowledge.
// Every pairwise-feasible pair must meet (Theorem 2 applies per pair); full
// simultaneous gathering has no guarantee in the paper, and the table
// records what the exact simulator observes. Every instance is an
// independent sweep job.
func E10GatheringCfg(cfg Config) (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "multi-robot gathering (extension: the Section 5 open problem)",
		Source: "Section 5 (future work), Theorem 2 per pair",
		Columns: []string{"instance", "pairs met / total", "last pair t",
			"gathered (diam ≤ r)", "gather t"},
	}
	mk := func(v, tau, phi float64, x, y float64) gather.Robot {
		return gather.Robot{
			Attrs:  frame.Attributes{V: v, Tau: tau, Phi: phi, Chi: frame.CCW},
			Origin: geom.V(x, y),
		}
	}
	cases := []struct {
		name   string
		r      float64
		robots []gather.Robot
	}{
		{"3 robots, distinct speeds", 0.25, []gather.Robot{
			mk(1, 1, 0, 0, 0), mk(0.5, 1, 0, 1, 0), mk(0.75, 1, 0, 0, 1),
		}},
		{"3 robots, distinct orientations", 0.25, []gather.Robot{
			mk(1, 1, 0, 0, 0), mk(1, 1, 1.0, 1, 0), mk(1, 1, 2.0, 0, 1),
		}},
		{"4 robots, mixed attributes", 0.25, []gather.Robot{
			mk(1, 1, 0, 0, 0), mk(0.5, 1, 0, 1, 0), mk(1, 1, 1.5, 0, 1), mk(0.75, 1, 0.5, 1, 1),
		}},
		{"3 robots, two identical (infeasible pair)", 0.25, []gather.Robot{
			mk(1, 1, 0, 0, 0), mk(1, 1, 0, 1, 0), mk(0.5, 1, 0, 0, 1),
		}},
		{"3 robots, loose tolerance (r = 1)", 1.0, []gather.Robot{
			mk(1, 1, 0, 0, 0), mk(0.5, 1, 0, 1, 0), mk(0.75, 1, 0, 0, 1),
		}},
	}
	var jobs []rowJob
	for _, c := range cases {
		jobs = append(jobs, func() ([]any, error) {
			in := gather.Instance{Robots: c.robots, R: c.r}
			res, err := gather.Simulate(algo.CumulativeSearch(), in, gather.Options{Horizon: 2e4})
			if err != nil {
				return nil, fmt.Errorf("E10 %s: %w", c.name, err)
			}
			met, last := 0, 0.0
			for _, p := range res.Pairs {
				if p.Met {
					met++
					if p.Time > last {
						last = p.Time
					}
				}
			}
			// Cross-check against the pairwise Theorem 4 prediction.
			if gather.AllPairsFeasible(c.robots) && met != len(res.Pairs) {
				return nil, fmt.Errorf("E10 %s: pairwise-feasible instance with %d/%d pairs met",
					c.name, met, len(res.Pairs))
			}
			gt := "-"
			if res.Gathered {
				gt = fmt.Sprintf("%.5g", res.GatherTime)
			}
			return []any{c.name, fmt.Sprintf("%d / %d", met, len(res.Pairs)),
				last, boolMark(res.Gathered), gt}, nil
		})
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"pairwise meetings follow Theorem 2/4 exactly (identical pairs never meet, capping the",
		"count below total); simultaneous gathering is NOT observed on any instance, even at",
		"loose tolerance: the pairwise algorithm makes different pairs meet at different times",
		"while the third robot is elsewhere — exactly why the paper leaves multi-robot",
		"gathering open (Section 5)")
	return t, nil
}

// E11LineVsPlaneCfg contrasts the paper's planar Theorem 4 with the
// one-dimensional setting of its predecessor [11]: a pure direction flip is
// always a symmetry breaker on the line, while the analogous planar mirror
// case (χ = −1, v = τ = 1) is infeasible. Every attribute-difference row is
// an independent sweep job; the planar simulations go through the cache.
func E11LineVsPlaneCfg(cfg Config) (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "line vs. plane: which attribute differences break symmetry",
		Source: "Theorem 4 vs. reference [11] (OPODIS 2018)",
		Columns: []string{"difference", "line outcome", "plane outcome (χ=+1)",
			"plane outcome (χ=−1)"},
	}
	const horizon = 1e5
	const r = 0.1

	lineRun := func(a line.Attributes) string {
		res, err := line.Rendezvous(line.Universal(), line.Instance{Attrs: a, D: 1, R: r},
			sim.Options{Horizon: horizon})
		if err != nil {
			return "error: " + err.Error()
		}
		return metCell(res)
	}
	planeRun := func(a frame.Attributes) string {
		in := sim.Instance{Attrs: a, D: AdversarialDisplacement(a, 1), R: r}
		res, err := cfg.Cache.Rendezvous("alg7", algo.Universal, in, sim.Options{Horizon: horizon})
		if err != nil {
			return "error: " + err.Error()
		}
		return metCell(res)
	}

	type diff struct {
		name      string
		lineAttrs line.Attributes
		// planar analogue with χ = +1 and χ = −1
		v, tau, phi float64
	}
	var jobs []rowJob
	for _, d := range []diff{
		{"none (identical)", line.Attributes{V: 1, Tau: 1, Dir: +1}, 1, 1, 0},
		{"speed (v=1/2)", line.Attributes{V: 0.5, Tau: 1, Dir: +1}, 0.5, 1, 0},
		{"clock (τ=1/2)", line.Attributes{V: 1, Tau: 0.5, Dir: +1}, 1, 0.5, 0},
		{"direction/orientation", line.Attributes{V: 1, Tau: 1, Dir: -1}, 1, 1, 2.0},
	} {
		jobs = append(jobs, func() ([]any, error) {
			return []any{d.name,
				lineRun(d.lineAttrs),
				planeRun(frame.Attributes{V: d.v, Tau: d.tau, Phi: d.phi, Chi: frame.CCW}),
				planeRun(frame.Attributes{V: d.v, Tau: d.tau, Phi: d.phi, Chi: frame.CW})}, nil
		})
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"the direction/orientation row is the headline contrast: always feasible on the line,",
		"feasible in the plane only with equal chiralities (χ=+1) — the chirality obstruction",
		"is intrinsically two-dimensional",
		"the 'none' row with χ=−1 is the planar mirror robot: also infeasible (Theorem 4)")
	return t, nil
}
