package testutil

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

func TestCloseEnough(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{0, 5e-10, true},     // below absolute tolerance
		{0, 2e-9, false},     // above absolute, relative meaningless at 0
		{1, 1 + 5e-7, true},  // within relative tolerance
		{1, 1 + 5e-6, false}, // outside relative tolerance
		{1e12, 1e12 * (1 + 5e-7), true},
		{1e12, 1e12 * (1 + 5e-6), false},
		{-3, -3 - 1e-7, true},
		{3, -3, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), 1e300, false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := CloseEnough(c.a, c.b); got != c.want {
			t.Errorf("CloseEnough(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCloseEnoughSymmetric(t *testing.T) {
	pairs := [][2]float64{{1, 1 + 1e-7}, {0, 1e-10}, {1e12, 1e12 + 1}, {-2, 2}}
	for _, p := range pairs {
		if CloseEnough(p[0], p[1]) != CloseEnough(p[1], p[0]) {
			t.Errorf("CloseEnough(%v, %v) is not symmetric", p[0], p[1])
		}
	}
}

func TestCloseEnoughTol(t *testing.T) {
	if !CloseEnoughTol(1, 1.05, 0, 0.1) {
		t.Error("relative tolerance 0.1 should accept 5% difference")
	}
	if CloseEnoughTol(1, 1.05, 0, 0.01) {
		t.Error("relative tolerance 0.01 should reject 5% difference")
	}
	if !CloseEnoughTol(0, 1e-13, 1e-12, 0) {
		t.Error("absolute tolerance should accept tiny difference at zero")
	}
}

func TestApproxPasses(t *testing.T) {
	// Approx on a passing pair must not fail the test.
	Approx(t, 1.0, 1.0+1e-8)
	ApproxMsg(t, 0.0, 1e-10, "near zero")
}

func TestSegments(t *testing.T) {
	line := func(x0, y0, x1, y1 float64) segment.Seg {
		return segment.UnitLine(geom.V(x0, y0), geom.V(x1, y1)).Seg()
	}
	good := []segment.Seg{line(0, 0, 1, 0), line(1, 0, 1, 1)}
	if segs, gap := Segments(trajectory.FromSlice(good)); gap != 0 || len(segs) != 2 || segs[0] != good[0] || segs[1] != good[1] {
		t.Errorf("good: gap=%v segments %v, want 0 and %v", gap, segs, good)
	}
	bad := trajectory.FromSlice([]segment.Seg{line(0, 0, 1, 0), line(2, 0, 3, 0)})
	if _, gap := Segments(bad); math.Abs(gap-1) > 1e-12 {
		t.Errorf("bad: gap=%v, want 1", gap)
	}
	if segs, gap := Segments(trajectory.FromSlice(nil)); len(segs) != 0 || gap != 0 {
		t.Errorf("empty: %d segments, gap %v", len(segs), gap)
	}
}
