// Package gather extends the paper's two-robot rendezvous to n robots — the
// open direction named in its conclusion ("it would be challenging to solve
// deterministic gathering for multiple robots in this setting of minimal
// knowledge", Section 5).
//
// All robots execute the same local-frame program under their own hidden
// attributes. Two notions of success are measured:
//
//   - Pairwise rendezvous: for each pair (i, j), the first time their
//     distance drops to r. Theorem 2/4 applies to each pair in isolation,
//     so every pair with a symmetry-breaking difference must meet.
//   - Gathering: the first time ALL robots are simultaneously within r of
//     each other (diameter ≤ r). No theorem in the paper guarantees this;
//     the simulator measures whether and when it happens.
//
// The gathering detector is sim.FirstGathering: a conservative safe advance
// on the robots' diameter over one stream of the program per distinct
// clock. The pairwise meetings are sim.FirstMeetingShared.
package gather

import (
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// Robot is one participant: hidden attributes and a starting position in
// the global frame.
type Robot struct {
	Attrs  frame.Attributes
	Origin geom.Vec
}

// Instance is an n-robot gathering instance with shared visibility radius R.
type Instance struct {
	Robots []Robot
	R      float64
}

// Validate reports whether the instance is well-formed: at least two robots
// with legal attributes, distinct origins, and positive visibility.
func (in Instance) Validate() error {
	if len(in.Robots) < 2 {
		return errors.New("gather: need at least two robots")
	}
	if !(in.R > 0) {
		return errors.New("gather: visibility radius must be positive")
	}
	for i, r := range in.Robots {
		if err := r.Attrs.Validate(); err != nil {
			return fmt.Errorf("gather: robot %d: %w", i, err)
		}
		for j := range i {
			if in.Robots[j].Origin == r.Origin {
				return fmt.Errorf("gather: robots %d and %d share an origin", j, i)
			}
		}
	}
	return nil
}

// PairResult is the first-contact outcome for one robot pair.
type PairResult struct {
	I, J int
	sim.Result
}

// Result is the outcome of a gathering simulation.
type Result struct {
	// Pairs holds the first meeting of every pair (i < j), in
	// lexicographic order.
	Pairs []PairResult
	// Gathered is true when all robots were simultaneously within R
	// (diameter ≤ R) before the horizon.
	Gathered bool
	// GatherTime is the first such time (valid when Gathered).
	GatherTime float64
	// DiameterAtHorizon is the robots' diameter when the run gave up
	// (valid when !Gathered).
	DiameterAtHorizon float64
}

// Options re-uses the two-robot simulator options.
type Options = sim.Options

// Simulate runs all robots on the same program and measures pairwise
// meetings and the gathering time. Each pair's first meeting is the
// two-robot walk of the program under their frames
// (sim.FirstMeetingShared); a pair with equal attributes takes its twin
// walk, which pulls the program once and tests no contact while the pair's
// distance provably stays above R. Gathering is found by
// sim.FirstGathering under the same frames.
func Simulate(program trajectory.Source, in Instance, opt Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if !(opt.Horizon > 0) {
		return Result{}, sim.ErrBadOptions
	}
	var res Result

	frames := make([]segment.Frame, len(in.Robots))
	for i, r := range in.Robots {
		frames[i] = r.Attrs.Frame(r.Origin)
	}

	// Pairwise meetings via the two-robot engine (exact closed forms), each
	// robot walking the local program under its own frame.
	for i := range in.Robots {
		for j := i + 1; j < len(in.Robots); j++ {
			r, err := sim.FirstMeetingShared(program, frames[i], frames[j], in.R, opt)
			if err != nil {
				return Result{}, fmt.Errorf("pair (%d,%d): %w", i, j, err)
			}
			res.Pairs = append(res.Pairs, PairResult{I: i, J: j, Result: r})
		}
	}

	// Gathering: conservative diameter tracking across all robots.
	var err error
	res.GatherTime, res.Gathered, res.DiameterAtHorizon, err = sim.FirstGathering(program, frames, in.R, opt)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// AllPairsFeasible reports whether every robot pair has a symmetry-breaking
// difference (the necessary condition for all pairwise rendezvous). Pair
// feasibility follows Theorem 4 applied to the relative attributes of the
// pair: relative speed v_j/v_i, relative clock τ_j/τ_i, relative orientation
// and chirality.
func AllPairsFeasible(robots []Robot) bool {
	for i := range robots {
		for j := i + 1; j < len(robots); j++ {
			if !pairFeasible(robots[i].Attrs, robots[j].Attrs) {
				return false
			}
		}
	}
	return true
}

// pairFeasible applies Theorem 4 to the frame of robot i: the relative
// attributes of j as seen from i.
func pairFeasible(a, b frame.Attributes) bool {
	rel := Relative(a, b)
	if rel.Tau != 1 || rel.V != 1 {
		return true
	}
	return rel.Chi == frame.CCW && rel.NormPhi() != 0
}

// Relative returns the attributes of robot b expressed in the frame of
// robot a (so that Theorem 4 and the two-robot machinery apply to the
// pair): speed b.V/a.V, clock b.Tau/a.Tau, orientation χ_a·(φ_b − φ_a), and
// chirality χ_a·χ_b.
func Relative(a, b frame.Attributes) frame.Attributes {
	phi := b.Phi - a.Phi
	if a.Chi == frame.CW {
		phi = -phi
	}
	return frame.Attributes{
		V:   b.V / a.V,
		Tau: b.Tau / a.Tau,
		Phi: phi,
		Chi: a.Chi * b.Chi, // χ_a·χ_b ∈ {+1, −1}
	}
}
