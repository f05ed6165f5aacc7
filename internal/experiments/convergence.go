package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The CONV experiment measures what the sampler API buys: estimator error
// versus sample count for each draw source, on one fixed Monte-Carlo
// estimand. It is run on demand (`-run CONV`) and deliberately excluded
// from All(), so the recorded RunAllCfg goldens are untouched.
//
// Estimand: the expected censored meeting time E[min(T_meet, H)] of
// Algorithm 4 at the default working point (gridBase), over a uniformly
// random orientation φ = 2π·u₀ and displacement direction 2π·u₁ (keeping
// |d|), with the fixed horizon H = RendezvousHorizon(gridBase). Two draw
// dimensions, a bounded integrand — exactly the shape the sweeps that
// motivated the API integrate, and smooth enough that low-discrepancy
// draws should show their O((log n)^s/n) convergence against pseudo's
// O(1/√n).
//
// The reference value is a high-n Sobol' run (convRefFactor × the largest
// n in the table), fixed before any per-sampler error is computed, so
// every column is measured against the same target.

// convRefFactor scales the reference run relative to the largest table n.
const convRefFactor = 8

// convNs expands the sample-count axis: powers of two from 16 up to max.
// max < 16 (in particular the 0 of a default Config) selects the recorded
// default of 1024.
func convNs(max int) []int {
	if max < 16 {
		max = 1024
	}
	var ns []int
	for n := 16; n <= max; n *= 2 {
		ns = append(ns, n)
	}
	return ns
}

// convKinds is the column order of the table: the pseudo baseline first,
// then the low-discrepancy kinds.
func convKinds() []sampler.Kind {
	return []sampler.Kind{sampler.Pseudo, sampler.Stratified, sampler.Halton, sampler.Sobol}
}

// convEstimate runs one n-sample estimate of the censored meeting time
// under the given draw source. The whole run is one block: the QMC kinds
// stratify their n (φ, direction) pairs jointly.
func convEstimate(cfg Config, kind sampler.Kind, n int) (float64, error) {
	base := gridBase
	dist := base.D.Norm()
	horizon := RendezvousHorizon(base)
	opt := cfg.sweepOptions()
	opt.Sampler = sampler.New(kind, n)
	vals, err := sweep.RunSampled(n, func(i int, d sampler.Draws) (float64, error) {
		in := base
		in.Attrs.Phi = 2 * math.Pi * d.Float64(0)
		in.D = geom.Polar(dist, 2*math.Pi*d.Float64(1))
		res, err := cfg.Cache.Rendezvous("alg4", algo.CumulativeSearch, in, sim.Options{Horizon: horizon})
		if err != nil {
			return 0, fmt.Errorf("CONV %s n=%d sample %d: %w", kind, n, i, err)
		}
		if !res.Met {
			return horizon, nil
		}
		return math.Min(res.Time, horizon), nil
	}, opt)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(n), nil
}

// ConvergenceCfg measures |estimate − reference| per sampler kind over a
// doubling sample-count axis. cfg.Samples, when ≥ 16, caps the largest n
// (the CI smoke run uses a small cap); the default axis runs to 1024.
// cfg.Sampler is ignored — the experiment's whole point is to sweep every
// kind. The closing notes quantify the headline: the factor fewer samples
// each QMC kind needs to match the pseudo baseline's error at the largest
// n.
func ConvergenceCfg(cfg Config) (Table, error) {
	if cfg.sweepNames == nil {
		cfg.sweepNames = &batchCounter{prefix: "CONV"}
	}
	ns := convNs(cfg.Samples)
	maxN := ns[len(ns)-1]
	t := Table{
		ID:      "CONV",
		Title:   fmt.Sprintf("sampler convergence: |E[min(T,H)] error| vs samples (ref: sobol n=%d)", convRefFactor*maxN),
		Source:  "sampler API (internal/sampler); estimand over the E3 working point",
		Columns: []string{"n"},
	}
	kinds := convKinds()
	for _, kind := range kinds {
		t.Columns = append(t.Columns, "err_"+kind.String())
	}

	ref, err := convEstimate(cfg, sampler.Sobol, convRefFactor*maxN)
	if err != nil {
		return t, err
	}

	errAt := make(map[sampler.Kind][]float64, len(kinds))
	for _, n := range ns {
		row := []any{n}
		for _, kind := range kinds {
			est, err := convEstimate(cfg, kind, n)
			if err != nil {
				return t, err
			}
			e := math.Abs(est - ref)
			errAt[kind] = append(errAt[kind], e)
			row = append(row, fmt.Sprintf("%.4f", e))
		}
		t.AddRow(row...)
	}

	t.Notes = append(t.Notes, fmt.Sprintf("reference E[min(T,H)] = %.6f (sobol, n=%d), base seed %d",
		ref, convRefFactor*maxN, cfg.Seed))
	// The headline: how many samples each QMC kind needs to match the
	// pseudo baseline's error at the largest n.
	target := errAt[sampler.Pseudo][len(ns)-1]
	for _, kind := range kinds[1:] {
		matched := 0
		for i, n := range ns {
			if errAt[kind][i] <= target {
				matched = n
				break
			}
		}
		if matched == 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: no n on the axis reaches pseudo's n=%d error (%.4f)", kind, maxN, target))
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s matches pseudo's n=%d error (%.4f) at n=%d: %.1f× fewer samples",
			kind, maxN, target, matched, float64(maxN)/float64(matched)))
	}
	return t, nil
}
