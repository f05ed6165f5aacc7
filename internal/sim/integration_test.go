package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

// TestFirstMeetingAgainstDenseSampling cross-validates the event-driven
// detector on random instances: the detected first-meeting time must be
// consistent with a dense sampling of the two trajectories — no sampled gap
// strictly below r may occur meaningfully before the detected time, and the
// gap at the detected time must be r (up to slack).
func TestFirstMeetingAgainstDenseSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const step = 0.005
	for i := range 12 {
		attrs := frame.Attributes{
			V:   0.3 + 0.7*rng.Float64(),
			Tau: 0.5 + rng.Float64(),
			Phi: 2 * math.Pi * rng.Float64(),
			Chi: frame.Chirality(1 - 2*rng.Intn(2)),
		}
		d := geom.Polar(0.6+0.8*rng.Float64(), 2*math.Pi*rng.Float64())
		r := 0.15 + 0.15*rng.Float64()

		program := algo.CumulativeSearch
		if i%2 == 1 {
			program = algo.Universal
		}
		fb := attrs.Frame(d)
		res, err := FirstMeetingFramed(program(), referenceFrame, program(), fb, r, Options{Horizon: 5e4})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !res.Met {
			continue // nothing to cross-validate (also covered elsewhere)
		}
		if !testutil.CloseEnoughTol(res.Gap, r, 0, 1e-6) {
			t.Errorf("case %d: gap at meeting = %v, want r = %v", i, res.Gap, r)
		}

		// Dense sampling up to just before the detected meeting.
		pa := trajectory.NewPath(program(), &referenceFrame)
		pb := trajectory.NewPath(program(), &fb)
		// Combined speed ≤ 1 + v ≤ 2; between samples the gap can change by
		// at most 2·step.
		margin := 2 * step
		for tt := 0.0; tt < res.Time-step; tt += step {
			gap := pa.Position(tt).Dist(pb.Position(tt))
			if gap < r-margin {
				t.Errorf("case %d: sampled gap %v < r=%v at t=%v, before detected meeting %v",
					i, gap, r, tt, res.Time)
				break
			}
		}
	}
}

// TestSearchAgainstDenseSampling does the same for the search problem with
// static targets (the arc-point closed form is the hot path here).
func TestSearchAgainstDenseSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const step = 0.005
	for i := range 10 {
		target := geom.Polar(0.5+1.5*rng.Float64(), 2*math.Pi*rng.Float64())
		r := 0.1 + 0.2*rng.Float64()
		res, err := Search(algo.CumulativeSearch(), target, r, Options{Horizon: 5e3})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !res.Met {
			t.Fatalf("case %d: target %v not found", i, target)
		}
		p := trajectory.NewPath(algo.CumulativeSearch(), nil)
		for tt := 0.0; tt < res.Time-step; tt += step {
			if gap := p.Position(tt).Dist(target); gap < r-step {
				t.Errorf("case %d: sampled gap %v < r=%v at t=%v before detection at %v",
					i, gap, r, tt, res.Time)
				break
			}
		}
	}
}
