package trajectory

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

func line(x0, y0, x1, y1 float64) segment.Seg {
	return segment.UnitLine(geom.V(x0, y0), geom.V(x1, y1)).Seg()
}

// collect pulls a finite source to its end through a Cursor and returns
// its segments and the largest distance between a segment's end and the
// next one's start (testutil.Segments, which this package's tests cannot
// import).
func collect(src Source) (segs []segment.Seg, maxGap float64) {
	cur := NewCursor(src)
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if n := len(segs); n > 0 {
			if gap := s.Start().Dist(segs[n-1].End()); gap > maxGap {
				maxGap = gap
			}
		}
		segs = append(segs, s)
	}
	return segs, maxGap
}

func TestFromSliceAndCollect(t *testing.T) {
	segs := []segment.Seg{line(0, 0, 1, 0), line(1, 0, 1, 1)}
	got, _ := collect(FromSlice(segs))
	if len(got) != 2 {
		t.Fatalf("collect returned %d segments, want 2", len(got))
	}
	for i := range segs {
		if got[i] != segs[i] {
			t.Errorf("segment %d mismatch", i)
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice([]segment.Seg{line(0, 0, 1, 0)})
	b := FromSlice([]segment.Seg{line(1, 0, 2, 0), line(2, 0, 3, 0)})
	if segs, _ := collect(Concat(a, b)); len(segs) != 3 {
		t.Errorf("Concat yielded %d segments, want 3", len(segs))
	}
	if d := Duration(Concat(a, b)); math.Abs(d-3) > 1e-12 {
		t.Errorf("Duration = %v, want 3", d)
	}
}

func TestConcatEarlyStop(t *testing.T) {
	a := FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 2, 0)})
	var n int
	cur := NewCursor(Concat(a, a))
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early stop consumed %d, want 3", n)
	}
}

func TestRepeatIsInfinite(t *testing.T) {
	src := Repeat(func(round int) Source {
		return FromSlice([]segment.Seg{segment.NewWait(geom.Zero, float64(round)).Seg()})
	})
	var rounds []float64
	cur := NewCursor(src)
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		rounds = append(rounds, s.Duration())
		if len(rounds) == 5 {
			break
		}
	}
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if rounds[i] != want[i] {
			t.Errorf("round %d duration = %v, want %v", i, rounds[i], want[i])
		}
	}
}

// TestTransform: a Path under a frame places its source's raw segments —
// durations stretch by the frame's clock, points map through its affine map.
func TestTransform(t *testing.T) {
	src := FromSlice([]segment.Seg{line(0, 0, 2, 0)})
	m := geom.Affine{M: geom.Rotation(math.Pi / 2).Scale(0.5), T: geom.V(1, 1)}
	fr := segment.NewFrame(m, 2)
	p := NewPath(src, &fr)
	if got := p.Position(0); !got.ApproxEqual(geom.V(1, 1), 1e-12) {
		t.Errorf("Start = %v, want (1,1)", got)
	}
	if got := p.Position(2); !got.ApproxEqual(geom.V(1, 1.5), 1e-12) {
		t.Errorf("Position(2) = %v, want (1,1.5)", got)
	}
	if got := p.Position(10); !got.ApproxEqual(geom.V(1, 2), 1e-12) {
		t.Errorf("End = %v, want (1,2)", got)
	}
}

// TestTransformNonPositiveScale: a frame with a non-positive time scale
// panics when it is built.
func TestTransformNonPositiveScale(t *testing.T) {
	defer func() {
		if p := recover(); p != "segment: NewFrame with non-positive time scale 0" {
			t.Fatalf("panic %v, want NewFrame's non-positive time scale panic", p)
		}
	}()
	segment.NewFrame(geom.IdentityAffine, 0)
}

func TestTruncate(t *testing.T) {
	src := Repeat(func(int) Source {
		return FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 0, 0)})
	})
	segs, _ := collect(Truncate(src, 5))
	if len(segs) != 5 {
		t.Errorf("Truncate yielded %d segments, want 5", len(segs))
	}
	d := Duration(FromSlice(segs))
	if d < 5 || d > 6 {
		t.Errorf("truncated duration = %v, want in [5, 6]", d)
	}
}

func TestDurationAndPathLength(t *testing.T) {
	src := FromSlice([]segment.Seg{
		line(0, 0, 3, 4),
		segment.NewWait(geom.V(3, 4), 2).Seg(),
		segment.FullCircle(geom.V(3, 4).Sub(geom.V(1, 0)), 1, 0).Seg(),
	})
	if got, want := Duration(src), 5+2+2*math.Pi; math.Abs(got-want) > 1e-12 {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	if got, want := PathLength(src), 5+2*math.Pi; math.Abs(got-want) > 1e-12 {
		t.Errorf("PathLength = %v, want %v", got, want)
	}
}

func TestPathPosition(t *testing.T) {
	p := NewPath(FromSlice([]segment.Seg{
		line(0, 0, 2, 0),                       // t in [0,2]
		segment.NewWait(geom.V(2, 0), 1).Seg(), // t in [2,3]
		line(2, 0, 2, 2),                       // t in [3,5]
	}), nil)

	tests := []struct {
		t    float64
		want geom.Vec
	}{
		{-1, geom.V(0, 0)},
		{0, geom.V(0, 0)},
		{1, geom.V(1, 0)},
		{2, geom.V(2, 0)},
		{2.5, geom.V(2, 0)},
		{3, geom.V(2, 0)},
		{4, geom.V(2, 1)},
		{5, geom.V(2, 2)},
		{100, geom.V(2, 2)}, // clamp past end
	}
	for _, tt := range tests {
		if got := p.Position(tt.t); !got.ApproxEqual(tt.want, 1e-12) {
			t.Errorf("Position(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestPathBackwardQueries(t *testing.T) {
	p := NewPath(FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 2, 0)}), nil)
	if got := p.Position(1.5); !got.ApproxEqual(geom.V(1.5, 0), 1e-12) {
		t.Errorf("forward query = %v", got)
	}
	// Backward query must hit the cache, not the exhausted iterator.
	if got := p.Position(0.25); !got.ApproxEqual(geom.V(0.25, 0), 1e-12) {
		t.Errorf("backward query = %v", got)
	}
}

func TestPathLazyConsumption(t *testing.T) {
	g := &countingGen{}
	p := NewPath(New(func() Gen { return g }), nil)
	p.Position(2.5)
	// The path pulls exactly the segments up to the queried time: [0,1),
	// [1,2) and [2,3).
	if g.i != 3 {
		t.Errorf("pulled %d segments for a query at t=2.5, want 3", g.i)
	}
}

func TestPathEmptySource(t *testing.T) {
	p := NewPath(FromSlice(nil), nil)
	if got := p.Position(1); got != geom.Zero {
		t.Errorf("empty path Position = %v, want origin", got)
	}
}

func TestStationary(t *testing.T) {
	p := NewPath(Stationary(geom.V(4, 2)), nil)
	for _, tt := range []float64{0, 1, 1e9} {
		if got := p.Position(tt); got != geom.V(4, 2) {
			t.Errorf("Position(%v) = %v, want (4,2)", tt, got)
		}
	}
}
