package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trajectory"
)

// TestRunGridCfgDeterminism: a CLI grid sweep renders byte-identically at
// any worker count, with or without a cache, warm or cold.
func TestRunGridCfgDeterminism(t *testing.T) {
	specs := []string{"v=0.25,0.5,0.75", "phi=0:2:1"}
	render := func(cfg Config) string {
		var buf bytes.Buffer
		if err := RunGridCfg(&buf, false, specs, "search", cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(Config{Workers: 1, Seed: 5, Samples: 3})
	if got := render(Config{Workers: 8, Seed: 5, Samples: 3}); got != want {
		t.Error("grid output differs between worker counts")
	}
	warm := cache.New(0)
	if got := render(Config{Workers: 8, Seed: 5, Samples: 3, Cache: warm}); got != want {
		t.Error("grid output differs with a cold cache")
	}
	if got := render(Config{Workers: 1, Seed: 5, Samples: 3, Cache: warm}); got != want {
		t.Error("grid output differs with a warm cache")
	}
	if s := warm.Stats(); s.Hits == 0 {
		t.Errorf("warm grid re-run hit the cache 0 times: %+v", s)
	}
	if !strings.Contains(want, "T_p90") {
		t.Errorf("summary columns missing from grid table:\n%s", want)
	}
}

// TestRunGridCfgRejectsBadAxes: unknown parameters, empty grids, and bad
// algorithms fail fast with a diagnostic instead of running.
func TestRunGridCfgRejectsBadAxes(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		specs []string
		algo  string
	}{
		{[]string{"warp=1,2"}, "search"},       // unknown axis
		{[]string{"chi=0.5"}, "search"},        // invalid chirality
		{[]string{"v=0.5"}, "teleport"},        // unknown algorithm
		{[]string{}, "search"},                 // no axes at all
		{[]string{"v=not-a-number"}, "search"}, // parse failure
	} {
		if err := RunGridCfg(&buf, false, tc.specs, tc.algo, Config{Workers: 1}); err == nil {
			t.Errorf("specs %v algo %q accepted", tc.specs, tc.algo)
		}
	}
}

// TestRunAllSharedPoolMatchesSerial: the shared-pool RunAllCfg path renders
// byte-identically across worker counts and cache configurations on a
// representative subset of the suite.
func TestRunAllSharedPoolMatchesSerial(t *testing.T) {
	runners := []Runner{
		{"E2", E2DurationsCfg},
		{"E3", E3SameChiralityCfg},
		{"E6", E6OverlapCfg},
		{"E14", E14FaultInjectionCfg},
		{"A1", A1FixedStepDetectorCfg},
	}
	render := func(cfg Config) string {
		var buf bytes.Buffer
		if err := runAll(&buf, false, cfg, runners); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(Config{Workers: 1})
	if got := render(Config{Workers: 8}); got != want {
		t.Error("shared-pool output differs between worker counts")
	}
	warm := cache.New(0)
	if got := render(Config{Workers: 8, Cache: warm}); got != want {
		t.Error("shared-pool output differs with a cold cache")
	}
	if got := render(Config{Workers: 3, Cache: warm}); got != want {
		t.Error("shared-pool output differs with a warm cache")
	}
	if s := warm.Stats(); s.Hits == 0 {
		t.Errorf("warm RunAllCfg re-run hit the cache 0 times: %+v", s)
	}
}

// TestMCInstanceDrawOrder is the golden guard for the Monte-Carlo draw
// order: under the default pseudo sampler, sample i's instance must consume
// the sweep.Rand(seed, i) stream in the fixed historical order — first draw
// φ, second draw the displacement direction. Reordering (or adding) draws
// would silently re-randomize every recorded rvsim sweep, so this test pins
// the exact bytes rather than just "two draws happened".
func TestMCInstanceDrawOrder(t *testing.T) {
	base := sim.Instance{
		Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	const seed, samples = 7, 32
	src := sampler.New(sampler.Pseudo, samples)
	dist := base.D.Norm()
	for i := 0; i < samples; i++ {
		legacy := sweep.Rand(seed, i)
		wantPhi := 2 * math.Pi * legacy.Float64()
		wantDir := 2 * math.Pi * legacy.Float64()

		in, h := mcInstance(base, dist, src.Draws(seed, i), 0)
		if in.Attrs.Phi != wantPhi {
			t.Fatalf("sample %d: phi = %v, want first legacy draw %v", i, in.Attrs.Phi, wantPhi)
		}
		wx, wy := dist*math.Cos(wantDir), dist*math.Sin(wantDir)
		if in.D.X != wx || in.D.Y != wy {
			t.Fatalf("sample %d: d = (%v,%v), want second legacy draw direction (%v,%v)", i, in.D.X, in.D.Y, wx, wy)
		}
		if h <= 0 {
			t.Fatalf("sample %d: non-positive horizon %v", i, h)
		}
	}
}

// TestMCInstanceHorizon: an explicit horizon passes through untouched; the
// auto horizon is positive and finite.
func TestMCInstanceHorizon(t *testing.T) {
	base := sim.Instance{
		Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	d := sampler.Default().Draws(1, 0)
	if _, h := mcInstance(base, 1, d, 123); h != 123 {
		t.Fatalf("explicit horizon rewritten to %v", h)
	}
	if _, h := mcInstance(base, 1, d, 0); h <= 0 || math.IsInf(h, 1) {
		t.Fatalf("auto horizon %v not positive finite", h)
	}
}

// TestMonteCarloMatchesScalar checks MonteCarlo sample by sample against
// the scalar sim.Rendezvous on mcInstance's draws, bit for bit, at one and
// three workers, with no cache, a cold one and the same cache warm, and on
// the scalar reference path. The infeasible base (v = 1, χ = −1; Theorem 4)
// has samples that never meet and walk to the horizon, past the end of the
// sweep's shared tape.
func TestMonteCarloMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name    string
		base    sim.Instance
		algo    string
		mk      func() trajectory.Source
		samples int
		horizon float64
		kind    sampler.Kind
	}{
		{"feasible search", sim.Instance{
			Attrs: frame.Attributes{V: 0.5, Tau: 1, Chi: frame.CCW},
			D:     geom.V(1, 0), R: 0.25,
		}, "search", algo.CumulativeSearch, 70, 0, sampler.Pseudo},
		{"feasible universal sobol", sim.Instance{
			Attrs: frame.Attributes{V: 0.5, Tau: 1, Chi: frame.CW},
			D:     geom.V(0, 1.5), R: 0.25,
		}, "universal", algo.Universal, 9, 0, sampler.Sobol},
		{"infeasible v=1 chi=-1", sim.Instance{
			Attrs: frame.Attributes{V: 1, Tau: 1, Chi: frame.CW},
			D:     geom.V(1, 0), R: 0.25,
		}, "search", algo.CumulativeSearch, 8, 3e4, sampler.Pseudo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 3
			src := sampler.New(tc.kind, tc.samples)
			want := make([]float64, tc.samples)
			missed := 0
			for i := range want {
				in, h := mcInstance(tc.base, tc.base.D.Norm(), src.Draws(seed, i), tc.horizon)
				res, err := sim.Rendezvous(tc.mk(), in, sim.Options{Horizon: h})
				if err != nil {
					t.Fatalf("sample %d: scalar: %v", i, err)
				}
				want[i] = res.Time
				if !res.Met {
					want[i] = math.Inf(1)
					missed++
				}
			}
			if feasible := tc.base.Attrs.V != 1; feasible != (missed == 0) {
				t.Fatalf("%d of %d samples missed", missed, tc.samples)
			}
			memo := cache.New(0)
			for _, run := range []struct {
				label   string
				memo    *cache.Cache
				workers int
				batch   bool
			}{
				{"no cache, 1 worker", nil, 1, true},
				{"no cache, 3 workers", nil, 3, true},
				{"cold cache, 3 workers", memo, 3, true},
				{"warm cache, 1 worker", memo, 1, true},
				{"scalar, 3 workers", nil, 3, false},
			} {
				cfg := Config{Workers: run.workers, Seed: seed, Samples: tc.samples, Sampler: tc.kind, Cache: run.memo, Batch: run.batch}
				got, err := MonteCarlo(tc.base, tc.algo, tc.horizon, cfg)
				if err != nil {
					t.Fatalf("%s: %v", run.label, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: sample %d: %v, want %v", run.label, i, got[i], want[i])
					}
				}
			}
			if st := memo.Stats(); st.Hits != uint64(tc.samples) {
				t.Fatalf("cache stats %+v: want the warm run to hit all %d samples", st, tc.samples)
			}
		})
	}
}

// TestCanceledCtxParity: under an already-canceled Config.Ctx, every
// batch-eligible sweep fails with the same error on the scalar and the
// batched path, at any worker count: both report the lowest job's canceled
// walk.
func TestCanceledCtxParity(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := sim.Instance{Attrs: frame.Attributes{V: 0.5, Tau: 1, Chi: frame.CCW}, D: geom.V(1, 0), R: 0.25}
	for _, tc := range []struct {
		name string
		run  func(Config) error
	}{
		{"E1", func(cfg Config) error { _, err := E1SearchScalingCfg(cfg); return err }},
		{"SweepGrid", func(cfg Config) error {
			_, err := SweepGrid([]string{"v=0.25,0.5", "d=1:3:1"}, "search", cfg)
			return err
		}},
		{"MonteCarlo", func(cfg Config) error { _, err := MonteCarlo(base, "universal", 0, cfg); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 3} {
				for _, batch := range []bool{false, true} {
					err := tc.run(Config{Workers: workers, Samples: 4, Batch: batch, Ctx: ctx})
					label := fmt.Sprintf("workers=%d batch=%v", workers, batch)
					if err == nil {
						t.Fatalf("%s: canceled sweep returned no error", label)
					}
					if want == "" {
						want = err.Error()
					} else if err.Error() != want {
						t.Errorf("%s: %q, want %q", label, err, want)
					}
				}
			}
		})
	}
}
