package main

import (
	"math"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestMCInstanceDrawOrder is the golden guard for rvsim's Monte-Carlo draw
// order: under the default pseudo sampler, sample i's instance must consume
// the sweep.Rand(seed, i) stream in the fixed historical order — first draw
// φ, second draw the displacement direction. Reordering (or adding) draws
// would silently re-randomize every recorded rvsim sweep, so this test pins
// the exact bytes rather than just "two draws happened".
func TestMCInstanceDrawOrder(t *testing.T) {
	base := rendezvous.Instance{
		Attrs: rendezvous.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: rendezvous.CCW},
		D:     rendezvous.XY(1, 0),
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
		wantD := in.D
		gotX, gotY := wantD.X, wantD.Y
		wx, wy := dist*math.Cos(wantDir), dist*math.Sin(wantDir)
		if gotX != wx || gotY != wy {
			t.Fatalf("sample %d: d = (%v,%v), want second legacy draw direction (%v,%v)", i, gotX, gotY, wx, wy)
		}
		if h <= 0 {
			t.Fatalf("sample %d: non-positive horizon %v", i, h)
		}
	}
}

// TestMCInstanceHorizon: an explicit horizon passes through untouched; the
// auto horizon is positive and finite.
func TestMCInstanceHorizon(t *testing.T) {
	base := rendezvous.Instance{
		Attrs: rendezvous.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: rendezvous.CCW},
		D:     rendezvous.XY(1, 0),
		R:     0.25,
	}
	d := sampler.Default().Draws(1, 0)
	if _, h := mcInstance(base, 1, d, 123); h != 123 {
		t.Fatalf("explicit horizon rewritten to %v", h)
	}
	d = sampler.Default().Draws(1, 0)
	if _, h := mcInstance(base, 1, d, 0); h <= 0 || math.IsInf(h, 1) {
		t.Fatalf("auto horizon %v not positive finite", h)
	}
}

// TestMonteCarloMatchesScalar checks the Monte-Carlo sweep sample by
// sample against the scalar sim.Rendezvous on mcInstance's draws, bit for
// bit, at one and three workers, with no cache, a cold one and the same
// cache warm. The infeasible base (v = 1, χ = −1; Theorem 4) has samples
// that never meet and walk to the horizon, past the end of the sweep's
// shared tape.
func TestMonteCarloMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base      rendezvous.Instance
		programID string
		mk        func() rendezvous.Trajectory
		samples   int
		horizon   float64
		kind      sampler.Kind
	}{
		{"feasible search", rendezvous.Instance{
			Attrs: rendezvous.Attributes{V: 0.5, Tau: 1, Chi: rendezvous.CCW},
			D:     rendezvous.XY(1, 0), R: 0.25,
		}, "alg4", rendezvous.CumulativeSearch, 70, 0, sampler.Pseudo},
		{"feasible universal sobol", rendezvous.Instance{
			Attrs: rendezvous.Attributes{V: 0.5, Tau: 1, Chi: rendezvous.CW},
			D:     rendezvous.XY(0, 1.5), R: 0.25,
		}, "alg7", rendezvous.Universal, 9, 0, sampler.Sobol},
		{"infeasible v=1 chi=-1", rendezvous.Instance{
			Attrs: rendezvous.Attributes{V: 1, Tau: 1, Chi: rendezvous.CW},
			D:     rendezvous.XY(1, 0), R: 0.25,
		}, "alg4", rendezvous.CumulativeSearch, 8, 3e4, sampler.Pseudo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 3
			src := sampler.New(tc.kind, tc.samples)
			want := make([]outcome, tc.samples)
			missed := 0
			for i := range want {
				in, h := mcInstance(tc.base, tc.base.D.Norm(), src.Draws(seed, i), tc.horizon)
				res, err := sim.Rendezvous(tc.mk(), in, sim.Options{Horizon: h})
				if err != nil {
					t.Fatalf("sample %d: scalar: %v", i, err)
				}
				want[i] = outcome{res.Met, res.Time}
				if !res.Met {
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
			}{
				{"no cache, 1 worker", nil, 1},
				{"no cache, 3 workers", nil, 3},
				{"cold cache, 3 workers", memo, 3},
				{"warm cache, 1 worker", memo, 1},
			} {
				got, err := monteCarlo(run.memo, tc.programID, tc.mk, tc.base, tc.samples, seed, tc.kind, run.workers, tc.horizon)
				if err != nil {
					t.Fatalf("%s: %v", run.label, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: sample %d: %+v, want %+v", run.label, i, got[i], want[i])
					}
				}
			}
			if st := memo.Stats(); st.Hits != uint64(tc.samples) {
				t.Fatalf("cache stats %+v: want the warm run to hit all %d samples", st, tc.samples)
			}
		})
	}
}
