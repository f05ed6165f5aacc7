package algo

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// Baseline search strategies used by experiment E9. The paper's algorithm
// (CumulativeSearch) is distinguished by needing to know *neither* d nor r;
// the baselines below each assume partial knowledge and illustrate what that
// knowledge buys or costs.

// KnownVisibilitySearch is the classic strategy for a robot that knows its
// visibility radius ρ: sweep the concentric circles of radii ρ, 3ρ, 5ρ, ...
// Each pair of consecutive circles is 2ρ apart, so the whole plane is
// covered at granularity ρ and a target at distance d is found in time
// O(d²/ρ) — the paper's algorithm pays an extra log(d²/r) factor for not
// knowing ρ. The source is infinite.
func KnownVisibilitySearch(rho float64) trajectory.Source {
	if rho <= 0 {
		panic(fmt.Sprintf("algo: KnownVisibilitySearch with non-positive rho %v", rho))
	}
	return trajectory.Repeat(func(i int) trajectory.Source {
		return SearchCircle(float64(2*i-1) * rho)
	})
}

// FixedPitchSweep is the discretised Archimedean spiral: concentric circles
// of radii p, 2p, 3p, ... for a fixed pitch p chosen without knowledge of r.
// It covers the plane at granularity p/2, so it finds the target only when
// r ≥ p/2; when r ≪ p it fails forever, and when r ≫ p it wastes time on
// needlessly dense circles. This is the "wrong granularity" baseline that
// motivates the adaptive schedule of Search(k). The source is infinite.
func FixedPitchSweep(pitch float64) trajectory.Source {
	if pitch <= 0 {
		panic(fmt.Sprintf("algo: FixedPitchSweep with non-positive pitch %v", pitch))
	}
	return trajectory.Repeat(func(i int) trajectory.Source {
		return SearchCircle(float64(i) * pitch)
	})
}

// ExpandingRings is a doubling strategy for a robot that knows neither d nor
// r but optimistically assumes r is proportional to d: circles at radii
// 1, 2, 4, 8, ... It reaches distance d quickly (time O(d)) but its
// granularity at distance d is d/2, so it only finds targets with r ≥ d/4 —
// a useful "fast but blind" comparison point. The source is infinite.
func ExpandingRings() trajectory.Source {
	return trajectory.Repeat(func(i int) trajectory.Source {
		return SearchCircle(math.Ldexp(1, i-1))
	})
}

// Stay is the degenerate strategy of waiting at the origin forever (in
// practice: one wait of the given duration, after which the Path clamps).
// It is the adversarial peer used when demonstrating that waiting alone
// never solves symmetric rendezvous.
func Stay() trajectory.Source {
	return trajectory.Stationary(geom.Zero)
}
