// Package rendezvous is a faithful, executable reproduction of
//
//	J. Czyzowicz, L. Gąsieniec, R. Killick, E. Kranakis,
//	"Symmetry Breaking in the Plane: Rendezvous by Robots with Unknown
//	Attributes", PODC 2019.
//
// Two anonymous robots are dropped at unknown, distinct points of the
// infinite Euclidean plane. Each has a constant speed, a clock, a compass,
// and a chirality — none of which is known to either robot, and none of
// which is guaranteed to agree with the other robot's. They cannot
// communicate; they see each other only within an (unknown) visibility
// radius r. Both must run the same deterministic algorithm. The paper shows
// rendezvous is achievable iff at least one attribute differs (speed, clock,
// or orientation-with-equal-chirality), and gives a universal algorithm that
// achieves it without knowing which attribute differs.
//
// This package is the public face of the library:
//
//   - Trajectory algorithms: [CumulativeSearch] (the paper's Algorithm 4,
//     near-optimal search, also the rendezvous algorithm for symmetric
//     clocks) and [Universal] (Algorithm 7, the universal rendezvous
//     algorithm), plus baselines.
//   - An exact continuous-time simulator: [Search] and [Rendezvous].
//   - The Theorem 4 feasibility classifier: [Feasible], [Classify].
//   - The paper's closed-form time bounds: [SearchTimeBound],
//     [RendezvousTimeBound].
//
// A minimal session:
//
//	in := rendezvous.Instance{
//	    Attrs: rendezvous.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: rendezvous.CCW},
//	    D:     rendezvous.XY(1, 0), // R′ starts 1 unit east of R
//	    R:     0.25,                // visibility radius
//	}
//	res, err := rendezvous.Rendezvous(rendezvous.Universal(), in,
//	    rendezvous.Options{Horizon: 1e5})
//
// Internals (exact motion primitives, the contact detector, the experiment
// harness) live under internal/; internal/experiments regenerates the
// paper-vs-measured tables, whose reference run its testdata goldens record.
package rendezvous

import (
	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/feasibility"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// Vec is a point or displacement in the plane.
type Vec = geom.Vec

// XY returns the vector (x, y).
func XY(x, y float64) Vec { return geom.V(x, y) }

// Polar returns the vector with the given radius and polar angle.
func Polar(radius, angle float64) Vec { return geom.Polar(radius, angle) }

// Chirality is a robot's handedness (which way it believes +y points).
type Chirality = frame.Chirality

// Chirality values.
const (
	CCW = frame.CCW
	CW  = frame.CW
)

// Attributes are the hidden parameters of the second robot R′ relative to
// the reference robot R: speed V, clock unit Tau, orientation Phi, and
// chirality Chi (Section 1.1 of the paper).
type Attributes = frame.Attributes

// Reference returns the attributes of the reference robot: V=1, Tau=1,
// Phi=0, Chi=CCW.
func Reference() Attributes { return frame.Reference() }

// Trajectory is a robot program: a lazy (possibly infinite) stream of exact
// motion segments in the robot's own reference frame. A simulation starts a
// fresh generator from it for each robot and pulls segments one at a time
// (see trajectory.Source); the algorithms here are written as pull
// generators.
type Trajectory = trajectory.Source

// Instance describes one rendezvous instance: R′'s attributes, the initial
// displacement D from R to R′, and the shared visibility radius R.
type Instance = sim.Instance

// Options control a simulation run (most importantly the give-up Horizon).
type Options = sim.Options

// Result reports a simulation outcome.
type Result = sim.Result

// Verdict is the Theorem 4 feasibility classification.
type Verdict = feasibility.Verdict

// CumulativeSearch returns the paper's Algorithm 4: repeat Search(k) for
// k = 1, 2, .... It solves the search problem in near-optimal time
// (Theorem 1) and the rendezvous problem for robots with symmetric clocks
// whenever rendezvous is feasible (Theorem 2). The trajectory is infinite.
func CumulativeSearch() Trajectory { return algo.CumulativeSearch() }

// Universal returns the paper's Algorithm 7: in round n, wait 2S(n) at the
// initial position, then run SearchAll(n) and SearchAllRev(n). It solves
// rendezvous in finite time in every feasible case — different clocks,
// speeds, or orientations with equal chirality — without the robots knowing
// which attribute differs (Theorems 3 and 4). The trajectory is infinite.
func Universal() Trajectory { return algo.Universal() }

// SearchRound returns Algorithm 3, Search(k): one round of annuli at
// doubling radii with matching granularity, then a fixed wait. Finite.
func SearchRound(k int) Trajectory { return algo.SearchRound(k) }

// KnownVisibilitySearch returns the baseline sweep for a robot that knows
// its visibility radius ρ (circles at ρ, 3ρ, 5ρ, ...). Infinite.
func KnownVisibilitySearch(rho float64) Trajectory { return algo.KnownVisibilitySearch(rho) }

// Search simulates the search problem of Section 2: the reference robot
// runs program from the origin; a static target sits at target; detection
// occurs at distance r. The run gives up at opt.Horizon.
func Search(program Trajectory, target Vec, r float64, opt Options) (Result, error) {
	return sim.Search(program, target, r, opt)
}

// Rendezvous simulates both robots running the same program: R in the
// reference frame from the origin, R′ under in.Attrs from in.D. Rendezvous
// is declared when their distance first drops to in.R.
func Rendezvous(program Trajectory, in Instance, opt Options) (Result, error) {
	return sim.Rendezvous(program, in, opt)
}

// Feasible reports whether rendezvous is achievable in finite time for
// robots with the given relative attributes — Theorem 4: feasible iff
// Tau ≠ 1, or V ≠ 1, or (Chi = CCW and 0 < Phi < 2π).
func Feasible(a Attributes) bool { return feasibility.Feasible(a) }

// Classify returns the full Theorem 4 verdict including which
// symmetry-breaking differences are present.
func Classify(a Attributes) Verdict { return feasibility.Classify(a) }

// Mu returns μ = sqrt(v² − 2v·cosφ + 1), the frame-disagreement factor of
// Theorem 2.
func Mu(v, phi float64) float64 { return geom.Mu(v, phi) }

// SearchTimeBound returns the Theorem 1 upper bound
// 6(π+1)·log₂(d²/r)·(d²/r) on the search time of CumulativeSearch (0 when
// d²/r ≤ 1, where the bound is vacuous).
func SearchTimeBound(d, r float64) float64 { return bounds.SearchTimeBound(d, r) }

// RendezvousAuto runs Rendezvous with a doubling horizon: starting from
// initialHorizon, the horizon doubles until the robots meet or it would
// exceed maxHorizon. This matches how one actually uses an algorithm with no
// termination detection (the robots can never conclude rendezvous is
// infeasible — Section 1 of the paper — so an external budget is the only
// stopping rule).
func RendezvousAuto(program Trajectory, in Instance, initialHorizon, maxHorizon float64) (Result, error) {
	if !(initialHorizon > 0) || !(maxHorizon >= initialHorizon) {
		return Result{}, sim.ErrBadOptions
	}
	var res Result
	for h := initialHorizon; ; h *= 2 {
		if h > maxHorizon {
			h = maxHorizon
		}
		var err error
		res, err = sim.Rendezvous(program, in, Options{Horizon: h})
		if err != nil {
			return Result{}, err
		}
		if res.Met || h >= maxHorizon {
			return res, nil
		}
	}
}

// RendezvousTimeBound returns the paper's upper bound on the rendezvous
// time of the appropriate algorithm for the instance: Theorem 2's bounds
// when the clocks are symmetric, the Theorem 3 / Lemma 13 round bound
// otherwise. It returns +Inf for infeasible instances.
//
// The asymmetric-clock bound is a worst-case envelope (Lemma 13's k* plus
// one full round); for τ > 1 the schedule is rescaled to the slower robot's
// clock, and the discovery-round estimate n uses the reference robot's
// units, which can be conservative by one round. Measured times are
// typically far below the envelope (see experiment E7).
func RendezvousTimeBound(in Instance) float64 {
	return feasibility.TimeBound(in.Attrs, in.D.Norm(), in.R)
}
