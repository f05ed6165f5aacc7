// Package trajectory turns streams of motion segments into queryable paths.
//
// The paper's algorithms (Section 2: Algorithms 1-4; Section 4: Algorithms
// 5-7) are unbounded loops, so trajectories are represented lazily as
// callback-push generators of value-typed segments (Source). Pushing a
// segment.Seg through a callback moves a struct — no per-segment interface
// boxing, no heap allocation — which is what lets the simulator walk
// millions of segments allocation-free. Pull-style consumption (the
// simulator's merged two-stream walk, the gathering walk, Path) is built on
// Cursor, an explicit resumable cursor that buffers a window of upcoming
// segments and re-invokes or streams the generator as needed — no
// iter.Pull, no per-segment coroutine switches.
package trajectory

import (
	"iter"

	"repro/internal/geom"
	"repro/internal/segment"
)

// Source is a lazy, possibly infinite stream of motion segments: a callback
// generator func(yield func(segment.Seg) bool) that pushes segments until
// told to stop. Each segment is assumed to start where the previous one
// ended (continuity); CheckContinuity verifies this for tests.
//
// Sources must be pure: re-invoking one yields the same segments. Cursor
// relies on this to resume after a suspension by re-running the generator
// and skipping the consumed prefix.
type Source = iter.Seq[segment.Seg]

// FromSlice returns a finite Source yielding the given segments in order.
func FromSlice(segs []segment.Seg) Source {
	return func(yield func(segment.Seg) bool) {
		for _, s := range segs {
			if !yield(s) {
				return
			}
		}
	}
}

// Concat returns a Source yielding all segments of each source in turn.
func Concat(sources ...Source) Source {
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

// Repeat yields the sources produced by gen(1), gen(2), ... forever. It is
// the "repeat with increasing round number" control structure of
// Algorithms 4 and 7.
func Repeat(gen func(round int) Source) Source {
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

// Transform returns a Source applying the affine map m and time dilation
// timeScale to every segment of src. This is how a reference frame is
// applied to a whole trajectory. Each generator invocation builds one
// segment.Frame and folds it into every yielded Seg value rather than
// wrapping it, so frame application allocates nothing per segment.
func Transform(src Source, m geom.Affine, timeScale float64) Source {
	return func(yield func(segment.Seg) bool) {
		if timeScale <= 0 {
			// NewFrame would panic; leave the panic to the first segment,
			// so an empty source stays valid under any frame.
			src(func(s segment.Seg) bool {
				return yield(s.Transformed(m, timeScale))
			})
			return
		}
		f := segment.NewFrame(m, timeScale)
		// Direct nested callback, not `for s := range src`: the range sugar
		// compiles to a fresh loop-body closure plus boxed loop state per
		// invocation, which this (one closure per invocation) avoids.
		src(func(s segment.Seg) bool {
			fc := f // a copy: taking f's own address would move it to the heap
			return yield(fc.Apply(&s))
		})
	}
}

// Truncate yields segments of src until the accumulated duration reaches
// maxDuration; the final segment is yielded whole (not cut), so the total
// duration may overshoot by at most one segment.
func Truncate(src Source, maxDuration float64) Source {
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

// Stationary returns a Source describing a robot that never moves from p.
// Used to model static targets and, in analysis, a hypothetical waiting
// peer. The single Wait segment is infinite in effect: Path clamps queries
// past the end of a finite source, so one long wait suffices; we use a zero
// duration wait and rely on clamping.
func Stationary(p geom.Vec) Source {
	return FromSlice([]segment.Seg{segment.Wait{At: p}.Seg()})
}

// Duration returns the total duration of a finite source.
func Duration(src Source) float64 {
	var total float64
	for s := range src {
		total += s.Duration()
	}
	return total
}

// PathLength returns the total path length of a finite source.
func PathLength(src Source) float64 {
	var total float64
	for s := range src {
		total += s.PathLength()
	}
	return total
}

// Collect materialises a finite source into a slice.
func Collect(src Source) []segment.Seg {
	var segs []segment.Seg
	for s := range src {
		segs = append(segs, s)
	}
	return segs
}

// CheckContinuity returns the largest positional gap between consecutive
// segments of a finite source, and the total number of segments. A correct
// trajectory has gap 0 up to round-off.
func CheckContinuity(src Source) (maxGap float64, n int) {
	first := true
	var prevEnd geom.Vec
	for s := range src {
		if !first {
			if gap := s.Start().Dist(prevEnd); gap > maxGap {
				maxGap = gap
			}
		}
		prevEnd = s.End()
		first = false
		n++
	}
	return maxGap, n
}
