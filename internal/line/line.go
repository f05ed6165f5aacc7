// Package line implements rendezvous on the infinite line — the setting of
// the paper's closest predecessor, reference [11] (Czyzowicz, Killick,
// Kranakis, "Linear rendezvous with asymmetric clocks", OPODIS 2018) — as a
// comparator substrate for the planar results.
//
// Robots live on the x-axis. A robot's hidden attributes reduce to speed v,
// clock unit τ, and a direction σ = ±1 (which way it believes "positive"
// points); chirality has no effect in one dimension. The package reuses the
// planar machinery: a direction flip is the planar orientation φ = π, and
// the one-dimensional trajectories are planar trajectories confined to the
// axis, so the exact simulator applies unchanged.
//
// The headline contrast with the plane (Theorem 4):
//
//   - on the line, a pure direction difference ALWAYS breaks symmetry
//     (the robots walk toward each other), whereas in the plane a pure
//     orientation difference breaks symmetry only under equal chiralities;
//   - with equal directions, the line behaves like the plane: v ≠ 1 or
//     τ ≠ 1 is required.
package line

import (
	"math"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// ZigZag returns the classic doubling ("cow-path") search trajectory on the
// line: for k = 0, 1, 2, ... walk from the origin to +2^k, back, to −2^k,
// and back. A static target at distance d in either direction is reached in
// time O(d). The trajectory is infinite.
func ZigZag() trajectory.Source {
	return trajectory.Repeat(func(round int) trajectory.Source {
		return zigZagRound(round - 1) // Repeat is 1-based; rounds start at 0
	})
}

// zigZagRound is one doubling round: out to +2^k, home, out to −2^k, home.
func zigZagRound(k int) trajectory.Source {
	reach := math.Ldexp(1, k)
	pos := geom.V(reach, 0)
	neg := geom.V(-reach, 0)
	return trajectory.FromSlice([]segment.Seg{
		segment.UnitLine(geom.Zero, pos).Seg(),
		segment.UnitLine(pos, geom.Zero).Seg(),
		segment.UnitLine(geom.Zero, neg).Seg(),
		segment.UnitLine(neg, geom.Zero).Seg(),
	})
}

// ZigZagRoundTime returns the duration 4·2^k of zig-zag round k.
func ZigZagRoundTime(k int) float64 { return 4 * math.Ldexp(1, k) }

// ZigZagPrefixTime returns the duration of rounds 0..k: 4(2^(k+1) − 1).
func ZigZagPrefixTime(k int) float64 { return 4 * (math.Ldexp(1, k+1) - 1) }

// SweepAll returns rounds 0..n of the zig-zag (finite), the line analogue
// of the planar SearchAll.
func SweepAll(n int) trajectory.Source {
	rounds := make([]trajectory.Source, 0, max(n+1, 0))
	for k := 0; k <= n; k++ {
		rounds = append(rounds, zigZagRound(k))
	}
	return trajectory.Concat(rounds...)
}

// SweepAllRev returns rounds n..0 (finite), the analogue of SearchAllRev.
func SweepAllRev(n int) trajectory.Source {
	rounds := make([]trajectory.Source, 0, max(n+1, 0))
	for k := n; k >= 0; k-- {
		rounds = append(rounds, zigZagRound(k))
	}
	return trajectory.Concat(rounds...)
}

// SweepAllTime returns the duration of SweepAll(n): 8(2^(n+1) − 1)... namely
// ZigZagPrefixTime(n) = 4(2^(n+1)−1).
func SweepAllTime(n int) float64 { return ZigZagPrefixTime(n) }

// Universal returns the line analogue of the paper's Algorithm 7, in the
// spirit of [11]: round n = 1, 2, ... waits 2·SweepAllTime(n) at the initial
// position and then runs SweepAll(n) followed by SweepAllRev(n). With
// asymmetric clocks the waiting/active phases de-synchronise exactly as in
// the plane, and one robot sweeps past the other while it waits. The
// trajectory is infinite.
func Universal() trajectory.Source {
	return trajectory.Repeat(func(n int) trajectory.Source {
		return trajectory.Concat(
			trajectory.FromSlice([]segment.Seg{
				segment.NewWait(geom.Zero, 2*SweepAllTime(n)).Seg(),
			}),
			SweepAll(n),
			SweepAllRev(n),
		)
	})
}

// Attributes are the hidden parameters of the second robot on the line.
type Attributes struct {
	V   float64 // speed (reference robot has speed 1)
	Tau float64 // clock unit (reference robot has unit 1)
	Dir int     // direction: +1 same as reference, −1 opposite
}

// planar converts line attributes to the planar frame: a direction flip is
// the rotation φ = π.
func (a Attributes) planar() frame.Attributes {
	phi := 0.0
	if a.Dir < 0 {
		phi = math.Pi
	}
	return frame.Attributes{V: a.V, Tau: a.Tau, Phi: phi, Chi: frame.CCW}
}

// Feasible reports whether line rendezvous is achievable in finite time:
// v ≠ 1, or τ ≠ 1, or opposite directions. (This is Theorem 4 restricted to
// φ ∈ {0, π}, χ = +1 — on the line there is no chirality obstruction.)
func Feasible(a Attributes) bool {
	return a.V != 1 || a.Tau != 1 || a.Dir < 0
}

// Instance is a one-dimensional rendezvous instance: the second robot's
// attributes, its signed initial displacement D along the line, and the
// detection radius R.
type Instance struct {
	Attrs Attributes
	D     float64
	R     float64
}

// Rendezvous simulates both robots running the same line program (e.g.
// Universal or ZigZag). It reuses the exact planar simulator with the
// trajectories confined to the axis.
func Rendezvous(program trajectory.Source, in Instance, opt sim.Options) (sim.Result, error) {
	return sim.Rendezvous(program, sim.Instance{
		Attrs: in.Attrs.planar(),
		D:     geom.V(in.D, 0),
		R:     in.R,
	}, opt)
}

// Search simulates the one-dimensional search problem: the reference robot
// runs program from the origin; a static target sits at signed position x.
func Search(program trajectory.Source, x, r float64, opt sim.Options) (sim.Result, error) {
	return sim.Search(program, geom.V(x, 0), r, opt)
}

// SearchTimeBound returns the classic doubling-search bound on ZigZag: a
// target at distance d is reached by the end of the first round k with
// 2^k ≥ d, hence within ZigZagPrefixTime(⌈log₂ d⌉) ≤ 8·(2d) − 4 ≤ 16d
// for d ≥ 1/2 (and within the constant 4 for nearer targets, which round 0
// already covers).
func SearchTimeBound(d float64) float64 {
	if d <= 1 {
		return ZigZagPrefixTime(0)
	}
	k := int(math.Ceil(math.Log2(d)))
	return ZigZagPrefixTime(k)
}
