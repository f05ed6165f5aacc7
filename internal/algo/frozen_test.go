package algo

import (
	"fmt"
	"iter"
	"math"

	"repro/internal/geom"
	"repro/internal/segment"
)

// This file is a frozen, test-only copy of the push generators the pull
// state (gen, and the trajectory constructors and combinators) replaced:
// the yield-helper chains of Algorithms 1–7, the ablations and baselines,
// trajectory's FromSlice, Concat, Repeat, Truncate, CutAt, DelayStart,
// FreezeDuring and ModulateSpeed, and the line package's zig-zag programs,
// each as it pushed segments through a callback. FuzzGenMatchesFrozen pins
// the pulled segments, durations and lengths to it bit for bit. Do not
// edit it to follow the production code.

type frozenSource = iter.Seq[segment.Seg]

func frozenYieldSearchCircle(yield func(segment.Seg) bool, delta float64) bool {
	out := geom.V(delta, 0)
	return yield(segment.UnitLine(geom.Zero, out).Seg()) &&
		yield(segment.FullCircle(geom.Zero, delta, 0).Seg()) &&
		yield(segment.UnitLine(out, geom.Zero).Seg())
}

func frozenSearchCircle(delta float64) frozenSource {
	return func(yield func(segment.Seg) bool) {
		frozenYieldSearchCircle(yield, delta)
	}
}

func frozenYieldSearchAnnulus(yield func(segment.Seg) bool, delta1, delta2, rho float64) bool {
	m := int(math.Ceil((delta2 - delta1) / (2 * rho)))
	for i := 0; i <= m; i++ {
		if !frozenYieldSearchCircle(yield, delta1+2*float64(i)*rho) {
			return false
		}
	}
	return true
}

func frozenSearchAnnulus(delta1, delta2, rho float64) frozenSource {
	return func(yield func(segment.Seg) bool) {
		frozenYieldSearchAnnulus(yield, delta1, delta2, rho)
	}
}

func frozenRoundAnnulus(j, k int) (delta, rho float64) {
	return math.Ldexp(1, -k+j), math.Ldexp(1, -3*k+2*j-1)
}

func frozenFinalWait(k int) float64 {
	return 3 * (math.Pi + 1) * (math.Ldexp(1, k) + math.Ldexp(1, -k))
}

func frozenYieldSearchRound(yield func(segment.Seg) bool, k int) bool {
	for j := 0; j <= 2*k-1; j++ {
		delta, rho := frozenRoundAnnulus(j, k)
		if !frozenYieldSearchAnnulus(yield, delta, 2*delta, rho) {
			return false
		}
	}
	return yield(segment.NewWait(geom.Zero, frozenFinalWait(k)).Seg())
}

func frozenSearchRound(k int) frozenSource {
	return func(yield func(segment.Seg) bool) {
		frozenYieldSearchRound(yield, k)
	}
}

func frozenCumulativeSearch() frozenSource {
	return func(yield func(segment.Seg) bool) {
		for k := 1; ; k++ {
			if !frozenYieldSearchRound(yield, k) {
				return
			}
		}
	}
}

func frozenYieldSearchAll(yield func(segment.Seg) bool, n int) bool {
	for k := 1; k <= n; k++ {
		if !frozenYieldSearchRound(yield, k) {
			return false
		}
	}
	return true
}

func frozenSearchAll(n int) frozenSource {
	return func(yield func(segment.Seg) bool) {
		frozenYieldSearchAll(yield, n)
	}
}

func frozenYieldSearchAllRev(yield func(segment.Seg) bool, n int) bool {
	for k := n; k >= 1; k-- {
		if !frozenYieldSearchRound(yield, k) {
			return false
		}
	}
	return true
}

func frozenSearchAllRev(n int) frozenSource {
	return func(yield func(segment.Seg) bool) {
		frozenYieldSearchAllRev(yield, n)
	}
}

func frozenSearchAllDuration(n int) float64 {
	return 12 * (math.Pi + 1) * float64(n) * math.Ldexp(1, n)
}

func frozenUniversal() frozenSource {
	return func(yield func(segment.Seg) bool) {
		for n := 1; ; n++ {
			if !yield(segment.NewWait(geom.Zero, 2*frozenSearchAllDuration(n)).Seg()) {
				return
			}
			if !frozenYieldSearchAll(yield, n) {
				return
			}
			if !frozenYieldSearchAllRev(yield, n) {
				return
			}
		}
	}
}

func frozenSearchRoundNoWait(k int) frozenSource {
	return func(yield func(segment.Seg) bool) {
		for j := 0; j <= 2*k-1; j++ {
			delta, rho := frozenRoundAnnulus(j, k)
			for s := range frozenSearchAnnulus(delta, 2*delta, rho) {
				if !yield(s) {
					return
				}
			}
		}
	}
}

func frozenUniversalNoRev() frozenSource {
	return frozenRepeat(func(n int) frozenSource {
		s := frozenSearchAllDuration(n)
		return frozenConcat(
			frozenFromSlice([]segment.Seg{segment.NewWait(geom.Zero, 2*s).Seg()}),
			frozenSearchAll(n),
			frozenFromSlice([]segment.Seg{segment.NewWait(geom.Zero, s).Seg()}),
		)
	})
}

func frozenUniversalNoInactive() frozenSource {
	return frozenRepeat(func(n int) frozenSource {
		return frozenConcat(frozenSearchAll(n), frozenSearchAllRev(n))
	})
}

func frozenKnownVisibilitySearch(rho float64) frozenSource {
	return frozenRepeat(func(i int) frozenSource {
		return frozenSearchCircle(float64(2*i-1) * rho)
	})
}

func frozenFixedPitchSweep(pitch float64) frozenSource {
	return frozenRepeat(func(i int) frozenSource {
		return frozenSearchCircle(float64(i) * pitch)
	})
}

func frozenExpandingRings() frozenSource {
	return frozenRepeat(func(i int) frozenSource {
		return frozenSearchCircle(float64(int64(1) << (i - 1)))
	})
}

// The trajectory constructors and combinators.

func frozenFromSlice(segs []segment.Seg) frozenSource {
	return func(yield func(segment.Seg) bool) {
		for _, s := range segs {
			if !yield(s) {
				return
			}
		}
	}
}

func frozenConcat(sources ...frozenSource) frozenSource {
	return func(yield func(segment.Seg) bool) {
		for _, src := range sources {
			for s := range src {
				if !yield(s) {
					return
				}
			}
		}
	}
}

func frozenRepeat(gen func(round int) frozenSource) frozenSource {
	return func(yield func(segment.Seg) bool) {
		for round := 1; ; round++ {
			for s := range gen(round) {
				if !yield(s) {
					return
				}
			}
		}
	}
}

func frozenTruncate(src frozenSource, maxDuration float64) frozenSource {
	return func(yield func(segment.Seg) bool) {
		var elapsed float64
		for s := range src {
			if elapsed >= maxDuration {
				return
			}
			if !yield(s) {
				return
			}
			elapsed += s.Duration()
		}
	}
}

func frozenCutAt(src frozenSource, t float64) frozenSource {
	return func(yield func(segment.Seg) bool) {
		var elapsed float64
		for s := range src {
			if t <= 0 {
				yield(segment.Wait{At: s.Start()}.Seg())
				return
			}
			d := s.Duration()
			if elapsed+d >= t {
				yield(segment.Prefix(s, t-elapsed))
				return
			}
			if !yield(s) {
				return
			}
			elapsed += d
		}
	}
}

func frozenDelayStart(src frozenSource, delay float64) frozenSource {
	if delay <= 0 {
		return src
	}
	return func(yield func(segment.Seg) bool) {
		first := true
		for s := range src {
			if first {
				first = false
				if !yield(segment.NewWait(s.Start(), delay).Seg()) {
					return
				}
			}
			if !yield(s) {
				return
			}
		}
		if first {
			yield(segment.NewWait(geom.Zero, delay).Seg())
		}
	}
}

func frozenFreezeDuring(src frozenSource, from, to float64) frozenSource {
	if to <= from {
		return src
	}
	return func(yield func(segment.Seg) bool) {
		var elapsed float64
		frozen := false
		for s := range src {
			d := s.Duration()
			if !frozen && from < elapsed+d {
				pre := segment.Prefix(s, from-elapsed)
				if pre.Duration() > 0 {
					if !yield(pre) {
						return
					}
				}
				at := s.Position(from - elapsed)
				if !yield(segment.NewWait(at, to-from).Seg()) {
					return
				}
				if !yield(segment.Suffix(s, from-elapsed)) {
					return
				}
				frozen = true
				elapsed += d
				continue
			}
			if !yield(s) {
				return
			}
			elapsed += d
		}
	}
}

func frozenModulateSpeed(src frozenSource, factors []float64) frozenSource {
	if len(factors) == 0 {
		return src
	}
	for _, f := range factors {
		if f <= 0 {
			panic(fmt.Sprintf("trajectory: ModulateSpeed with non-positive factor %v", f))
		}
	}
	return func(yield func(segment.Seg) bool) {
		i := 0
		for s := range src {
			f := factors[i%len(factors)]
			i++
			if !yield(s.Dilated(1 / f)) {
				return
			}
		}
	}
}

// The line package's programs.

func frozenZigZagRound(k int) frozenSource {
	reach := math.Ldexp(1, k)
	pos := geom.V(reach, 0)
	neg := geom.V(-reach, 0)
	return frozenFromSlice([]segment.Seg{
		segment.UnitLine(geom.Zero, pos).Seg(),
		segment.UnitLine(pos, geom.Zero).Seg(),
		segment.UnitLine(geom.Zero, neg).Seg(),
		segment.UnitLine(neg, geom.Zero).Seg(),
	})
}

func frozenZigZag() frozenSource {
	return frozenRepeat(func(round int) frozenSource {
		return frozenZigZagRound(round - 1)
	})
}

func frozenSweepAll(n int) frozenSource {
	return func(yield func(segment.Seg) bool) {
		for k := 0; k <= n; k++ {
			for s := range frozenZigZagRound(k) {
				if !yield(s) {
					return
				}
			}
		}
	}
}

func frozenSweepAllRev(n int) frozenSource {
	return func(yield func(segment.Seg) bool) {
		for k := n; k >= 0; k-- {
			for s := range frozenZigZagRound(k) {
				if !yield(s) {
					return
				}
			}
		}
	}
}

func frozenLineUniversal() frozenSource {
	return frozenRepeat(func(n int) frozenSource {
		return frozenConcat(
			frozenFromSlice([]segment.Seg{
				segment.NewWait(geom.Zero, 2*(4*(math.Ldexp(1, n+1)-1))).Seg(),
			}),
			frozenSweepAll(n),
			frozenSweepAllRev(n),
		)
	})
}
