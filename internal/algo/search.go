// Package algo implements the trajectory algorithms of Czyzowicz, Gąsieniec,
// Killick and Kranakis, "Symmetry Breaking in the Plane: Rendezvous by
// Robots with Unknown Attributes" (PODC 2019), plus baseline strategies used
// for comparison experiments.
//
// All algorithms are expressed in the local frame of the executing robot:
// unit speed, unit clock, the robot's own origin and axes. The frame package
// maps them into the global frame of a robot with arbitrary attributes.
//
// Every program of Algorithms 1–7, and the ablations, is one explicit,
// copyable generator state (gen, in gen.go): a schedule of Search(k) rounds
// and waits, and the position inside the current round (annulus j, circle
// i, step). Walks pull it through trajectory.Gen; producing a segment
// allocates nothing, and each segment comes with its duration and length in
// closed form, bit-identical to segment.Seg.DurationAndLength. The
// baselines repeat SearchCircle through trajectory.Repeat, itself a pull
// generator.
//
// Naming follows the paper:
//
//	Algorithm 1  SearchCircle(δ)
//	Algorithm 2  SearchAnnulus(δ1, δ2, ρ)
//	Algorithm 3  Search(k)            → SearchRound
//	Algorithm 4  (repeat Search(k))   → CumulativeSearch
//	Algorithm 5  SearchAll(n)
//	Algorithm 6  SearchAllRev(n)
//	Algorithm 7  (universal)          → Universal
package algo

import (
	"math"

	"repro/internal/trajectory"
)

// SearchCircle is Algorithm 1: move along the +x axis from the origin to
// radial position δ, traverse the circle of radius δ counter-clockwise, and
// return to the origin. Total duration 2(π+1)δ.
func SearchCircle(delta float64) trajectory.Source {
	return annulusProgram(delta, 0, 0)
}

// AnnulusCircleCount returns m = ⌈(δ2−δ1)/(2ρ)⌉, the last circle index of
// Algorithm 2 (which runs i = 0..m inclusive).
func AnnulusCircleCount(delta1, delta2, rho float64) int {
	return int(math.Ceil((delta2 - delta1) / (2 * rho)))
}

// SearchAnnulus is Algorithm 2: repeatedly SearchCircle(δ1 + 2iρ) for
// i = 0..⌈(δ2−δ1)/(2ρ)⌉, bringing the robot within ρ of every point of the
// annulus with inner radius δ1 and outer radius δ2.
func SearchAnnulus(delta1, delta2, rho float64) trajectory.Source {
	return annulusProgram(delta1, rho, AnnulusCircleCount(delta1, delta2, rho))
}

// RoundAnnulus returns the inner radius δ(j,k) = 2^(−k+j) and granularity
// ρ(j,k) = 2^(−3k+2j−1) of sub-round j of Search(k). The outer radius is
// δ(j+1, k) = 2·δ(j,k). These satisfy δ²/ρ = 2^(k+1) (used by Lemma 3).
func RoundAnnulus(j, k int) (delta, rho float64) {
	return math.Ldexp(1, -k+j), math.Ldexp(1, -3*k+2*j-1)
}

// FinalWait returns the duration 3(π+1)(2^k + 2^(−k)) of the wait appended
// at the end of Search(k), which the paper adds "only in order to simplify
// algebra": it rounds the duration of Search(k) to exactly
// 3(π+1)(k+1)·2^(k+1).
func FinalWait(k int) float64 {
	return 3 * (math.Pi + 1) * (math.Ldexp(1, k) + math.Ldexp(1, -k))
}

// SearchRound is Algorithm 3, Search(k): for j = 0..2k−1 search the annulus
// with radii δ(j,k), δ(j+1,k) at granularity ρ(j,k), then wait FinalWait(k)
// at the origin. Total duration 3(π+1)(k+1)·2^(k+1).
func SearchRound(k int) trajectory.Source {
	return program(gen{sched: schedOnce, n: k, wait: true})
}

// CumulativeSearch is Algorithm 4: perform Search(1), Search(2), ... without
// end. It is the paper's near-optimal search algorithm (Theorem 1) and also
// its rendezvous algorithm for robots with symmetric clocks (Theorem 2).
func CumulativeSearch() trajectory.Source {
	return trajectory.New(func() trajectory.Gen { return &gen{sched: schedCumulative, wait: true} })
}

// SearchAll is Algorithm 5: Search(1), Search(2), ..., Search(n).
func SearchAll(n int) trajectory.Source {
	return program(gen{sched: schedAll, n: n, wait: true})
}

// SearchAllRev is Algorithm 6: Search(n), Search(n−1), ..., Search(1).
func SearchAllRev(n int) trajectory.Source {
	return program(gen{sched: schedAllRev, n: n, wait: true})
}

// SearchAllDuration returns S(n), the duration of SearchAll(n):
// S(n) = 12(π+1)·n·2^n (equation (1) of the paper).
func SearchAllDuration(n int) float64 {
	return 12 * (math.Pi + 1) * float64(n) * math.Ldexp(1, n)
}

// Universal is Algorithm 7, the paper's universal rendezvous algorithm for
// robots with possibly asymmetric clocks: in round n = 1, 2, ... the robot
// waits at its initial position for 2S(n) (the inactive phase) and then
// performs SearchAll(n) followed by SearchAllRev(n) (the active phase, also
// of length 2S(n)).
func Universal() trajectory.Source {
	return trajectory.New(func() trajectory.Gen { return &gen{sched: schedUniversal, n: 1, wait: true} })
}
