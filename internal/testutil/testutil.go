// Package testutil holds the helpers shared by the test suites. Exact
// closed forms are compared to simulated values all over this repo, and
// every package had grown its own ad-hoc |got−want| ≤ ε check; this package
// fixes one hybrid tolerance scheme for all of them. Segments reads a
// finite program for the tests that inspect it segment by segment.
package testutil

import (
	"math"
	"testing"

	"repro/internal/segment"
	"repro/internal/trajectory"
)

// AbsTolerance is the absolute tolerance used below which two floats are
// considered equal regardless of magnitude (guards comparisons near zero,
// where a relative test is meaningless).
const AbsTolerance = 1e-9

// RelTolerance is the relative tolerance applied to the larger magnitude
// when the absolute test fails.
const RelTolerance = 1e-6

// CloseEnough reports whether a and b are equal under the hybrid scheme:
// an absolute difference of at most AbsTolerance always passes (this also
// handles both values being tiny or exactly zero); otherwise the difference
// must be at most RelTolerance times the larger magnitude. NaNs are never
// close to anything, matching the IEEE comparison the scheme replaces.
func CloseEnough(a, b float64) bool {
	return CloseEnoughTol(a, b, AbsTolerance, RelTolerance)
}

// CloseEnoughTol is CloseEnough with explicit tolerances, for the callers
// whose quantities carry round-off far below (or above) the defaults.
func CloseEnoughTol(a, b, abs, rel float64) bool {
	if a == b {
		return true // also covers ±Inf matching
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 1) {
		// One side is infinite (or the gap overflows): never close, and the
		// relative test below would degenerate to Inf ≤ Inf.
		return false
	}
	if diff <= abs {
		return true
	}
	return diff <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// Approx fails the test when got and want are not CloseEnough. The message
// includes both values and their difference.
func Approx(t testing.TB, got, want float64) {
	t.Helper()
	ApproxMsg(t, got, want, "value")
}

// ApproxMsg is Approx with a label naming the quantity under test.
func ApproxMsg(t testing.TB, got, want float64, label string) {
	t.Helper()
	if !CloseEnough(got, want) {
		t.Errorf("%s = %v, want %v (diff %g)", label, got, want, math.Abs(got-want))
	}
}

// Segments pulls a finite program to its end through a trajectory.Cursor
// and returns its segments and the largest distance between a segment's
// end and the next one's start: 0, up to round-off, for a continuous
// program.
func Segments(src trajectory.Source) (segs []segment.Seg, maxGap float64) {
	cur := trajectory.NewCursor(src)
	for {
		seg, ok := cur.Next()
		if !ok {
			return segs, maxGap
		}
		if n := len(segs); n > 0 {
			if gap := seg.Start().Dist(segs[n-1].End()); gap > maxGap {
				maxGap = gap
			}
		}
		segs = append(segs, seg)
	}
}
