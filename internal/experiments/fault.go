package experiments

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// E14FaultInjectionCfg measures the paper's algorithms under robot faults —
// the reliability dimension the related work ([12], compass-error papers)
// treats adversarially. The striking effect: two *identical* robots, for
// whom rendezvous is provably infeasible (Theorem 4), meet once any fault
// de-synchronises them — a crash, a late start, or a transient freeze all
// act as external symmetry breakers. Every fault scenario is an
// independent, cache-backed sweep job; the symmetric control is re-checked
// on the assembled table.
func E14FaultInjectionCfg(cfg Config) (Table, error) {
	t := Table{
		ID:      "E14",
		Title:   "fault injection on identical robots (extension)",
		Source:  "Theorem 4 (contrapositive) + related work [12]",
		Columns: []string{"fault on R′", "outcome", "t_meet", "note"},
	}
	const horizon = 5e4
	// R′ is identical to R (infeasible without faults), displaced by (1,0).
	in := sim.Instance{Attrs: frame.Reference(), D: geom.V(1, 0), R: 0.25}

	// The faults act on R′'s local program, in its own clock; with τ = 1
	// that is global time. fault, appended to R′'s program name, spells
	// the fault out completely, so the cache key pins both programs.
	job := func(fault, name string, faulty func() trajectory.Source, note string, mustMeet bool) rowJob {
		return func() ([]any, error) {
			res, err := cfg.Cache.Asymmetric("alg4", "alg4"+fault, algo.CumulativeSearch, faulty, in,
				sim.Options{Horizon: horizon})
			if err != nil {
				return nil, fmt.Errorf("E14 %s: %w", name, err)
			}
			outcome, tm := "no meeting", "-"
			if res.Met {
				outcome = "met"
				tm = fmt.Sprintf("%.5g", res.Time)
			}
			if mustMeet && !res.Met {
				return nil, fmt.Errorf("E14 %s: expected meeting, got none (gap %v)", name, res.Gap)
			}
			return []any{name, outcome, tm, note}, nil
		}
	}

	// Control: no fault — perfectly symmetric, never meets.
	jobs := []rowJob{job("", "none (control)", algo.CumulativeSearch, "Theorem 4: infeasible", false)}
	// Crash faults: R′ halts forever; R's algorithm solves plain search
	// against the crash position, so meeting is guaranteed.
	for _, crash := range []float64{0, 50, 500} {
		name := "crash at t=" + FormatFloat(crash)
		jobs = append(jobs, job("+crash@"+FormatFloat(crash), name,
			func() trajectory.Source { return trajectory.CutAt(algo.CumulativeSearch(), crash) },
			"reduces to search; guaranteed", true))
	}
	// Delayed start: R′ is a time-shifted twin.
	for _, delay := range []float64{10, 100} {
		name := "start delayed by " + FormatFloat(delay)
		jobs = append(jobs, job("+delay@"+FormatFloat(delay), name,
			func() trajectory.Source { return trajectory.DelayStart(algo.CumulativeSearch(), delay) },
			"time shift breaks symmetry", false))
	}
	// Transient freeze: outage then resume, permanently offset in phase.
	jobs = append(jobs, job("+freeze@100-300", "frozen during [100, 300]",
		func() trajectory.Source { return trajectory.FreezeDuring(algo.CumulativeSearch(), 100, 300) },
		"phase offset after outage", false))

	if err := runRows(&t, cfg, jobs); err != nil {
		return t, err
	}
	// A sharded run that does not own job 0 leaves the control row empty;
	// every complete run (single-process or merge) re-checks it here.
	if len(t.Rows[0]) > 1 && t.Rows[0][1] != "no meeting" {
		return t, fmt.Errorf("E14 control: symmetric robots met")
	}
	t.Notes = append(t.Notes,
		"identical robots never meet (control) but ANY fault that de-synchronises them acts",
		"as a symmetry breaker; crash faults reduce rendezvous to Theorem 1 search and are",
		"therefore guaranteed to resolve")
	return t, nil
}
