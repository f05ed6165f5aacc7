package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// A1FixedStepDetector ablates the detector with the default config.
func A1FixedStepDetector() (Table, error) { return A1FixedStepDetectorCfg(Config{}) }

// A1FixedStepDetectorCfg ablates the simulator's safe-advance contact
// detector against naive fixed-step sampling: coarse steps miss grazing
// contacts that the conservative scheme cannot miss. Every detector
// configuration is an independent sweep job.
func A1FixedStepDetectorCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "A1",
		Title:   "safe-advance detection vs. fixed-step sampling",
		Source:  "DESIGN.md substitution 1 (detection soundness)",
		Columns: []string{"step", "detected", "t_detected", "samples/steps"},
	}
	// A grazing encounter: a mover sweeps past a static point with closest
	// approach exactly at the contact radius.
	a := motion.Linear{P0: geom.V(-50, 1), Vel: geom.V(1, 0)}
	b := motion.Static(geom.Zero)
	const r, t0, t1 = 1.0, 0.0, 100.0

	var jobs []rowJob
	// Fixed-step sampling at several resolutions.
	for _, step := range []float64{5, 1, 0.25} {
		jobs = append(jobs, func() ([]any, error) {
			hit, n := math.NaN(), 0
			found := false
			for x := t0; x <= t1; x += step {
				n++
				if a.At(x).Dist(b.At(x)) <= r {
					hit, found = x, true
					break
				}
			}
			return []any{fmt.Sprintf("fixed %.4g", step), boolMark(found),
				fmt.Sprintf("%.6g", hit), n}, nil
		})
	}
	// Safe advance (production path, forced through the conservative code).
	jobs = append(jobs, func() ([]any, error) {
		steps := 0
		counting := func(x float64) geom.Vec { steps++; return b.At(x) }
		hit, found, err := motion.SafeAdvance(a1Motion{a.At, a.SpeedBound()}, a1Motion{counting, 0},
			r, t0, t1, motion.Options{Slack: 1e-9, MaxIters: 10_000_000})
		if err != nil {
			return nil, fmt.Errorf("A1: %w", err)
		}
		return []any{"safe-advance", boolMark(found), fmt.Sprintf("%.6g", hit), steps}, nil
	})
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"the grazing contact (closest approach = r at t=50) is invisible to coarse fixed steps;",
		"safe advance always detects it, spending steps only near the close approach")
	return t, nil
}

// a1Motion is a motion given by its position function and speed bound.
type a1Motion struct {
	at    func(float64) geom.Vec
	bound float64
}

func (m a1Motion) At(t float64) geom.Vec { return m.at(t) }
func (m a1Motion) SpeedBound() float64   { return m.bound }

// A2NoFinalWait ablates the final wait with the default config.
func A2NoFinalWait() (Table, error) { return A2NoFinalWaitCfg(Config{}) }

// A2NoFinalWaitCfg ablates the final wait of Search(k): without it the
// round durations fall below the closed forms the Section 4 phase lemmas
// assume. One sweep job per round.
func A2NoFinalWaitCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "A2",
		Title:   "Search(k) with and without the final wait",
		Source:  "Algorithm 3 (the wait 'simplifies algebra')",
		Columns: []string{"k", "with wait", "closed form", "without wait", "drift"},
	}
	var jobs []rowJob
	for k := 1; k <= 6; k++ {
		jobs = append(jobs, func() ([]any, error) {
			with := trajectory.Duration(algo.SearchRound(k))
			without := trajectory.Duration(algo.SearchRoundNoWait(k))
			closed := bounds.SearchRoundTime(k)
			return []any{k, with, closed, without, with - without}, nil
		})
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"the drift equals FinalWait(k) = 3(π+1)(2^k+2^(−k)); without it I(n)/A(n) of Lemma 8 are wrong")
	return t, nil
}

// A3NoReversePass ablates Algorithm 7 with the default config.
func A3NoReversePass() (Table, error) { return A3NoReversePassCfg(Config{}) }

// A3NoReversePassCfg ablates the SearchAllRev pass of Algorithm 7,
// replacing it with an equal-length wait, and compares rendezvous times
// across clock ratios: the Lemma 10 regimes (t > 2/3) depend on the active
// phase's tail revisiting the origin's neighbourhood. Every clock ratio is
// an independent, cache-backed sweep job.
func A3NoReversePassCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "A3",
		Title:   "Algorithm 7 structural ablations",
		Source:  "Algorithms 6-7, Lemmas 9-10 / Figure 3",
		Columns: []string{"τ", "full Alg.7", "no reverse pass", "no inactive phases"},
	}
	const d, r = 1.0, 0.25
	const horizon = 3e5
	variants := []struct {
		id string
		mk func() trajectory.Source
	}{
		{"alg7", algo.Universal},
		{"alg7-norev", algo.UniversalNoRev},
		{"alg7-noinactive", algo.UniversalNoInactive},
	}
	var jobs []rowJob
	for _, tau := range []float64{0.5, 0.7, 0.9} {
		jobs = append(jobs, func() ([]any, error) {
			in := sim.Instance{
				Attrs: frame.Attributes{V: 1, Tau: tau, Phi: 0, Chi: frame.CCW},
				D:     geom.V(d, 0),
				R:     r,
			}
			cells := make([]any, 0, 4)
			cells = append(cells, tau)
			for _, v := range variants {
				res, err := cfg.Cache.Rendezvous(v.id, v.mk, in, sim.Options{Horizon: horizon})
				if err != nil {
					return nil, fmt.Errorf("A3 τ=%v: %w", tau, err)
				}
				cells = append(cells, metCell(res))
			}
			return cells, nil
		})
	}
	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"variants keep the exact round schedule where possible, isolating each structural element;",
		"at these laptop-scale parameters rendezvous occurs in early rounds via the forward sweep,",
		"so the reverse pass matters only for the worst-case guarantee (Lemma 10 regimes, t > 2/3);",
		"removing the inactive phases abandons the 'find the peer while it waits' mechanism entirely —",
		"any meeting is then accidental and carries no round bound")
	return t, nil
}

func metCell(res sim.Result) string {
	if res.Met {
		return fmt.Sprintf("%.5g", res.Time)
	}
	return "no meeting"
}
