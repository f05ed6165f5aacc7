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

func TestFromSliceAndCollect(t *testing.T) {
	segs := []segment.Seg{line(0, 0, 1, 0), line(1, 0, 1, 1)}
	got := Collect(FromSlice(segs))
	if len(got) != 2 {
		t.Fatalf("Collect returned %d segments, want 2", len(got))
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
	if n := len(Collect(Concat(a, b))); n != 3 {
		t.Errorf("Concat yielded %d segments, want 3", n)
	}
	if d := Duration(Concat(a, b)); math.Abs(d-3) > 1e-12 {
		t.Errorf("Duration = %v, want 3", d)
	}
}

func TestConcatEarlyStop(t *testing.T) {
	a := FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 2, 0)})
	var n int
	for range Concat(a, a) {
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
	for s := range src {
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

func TestTransform(t *testing.T) {
	src := FromSlice([]segment.Seg{line(0, 0, 2, 0)})
	m := geom.Affine{M: geom.Rotation(math.Pi / 2).Scale(0.5), T: geom.V(1, 1)}
	out := Collect(Transform(src, m, 2))
	if len(out) != 1 {
		t.Fatalf("got %d segments", len(out))
	}
	if got, want := out[0].Duration(), 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	if got := out[0].End(); !got.ApproxEqual(geom.V(1, 2), 1e-12) {
		t.Errorf("End = %v, want (1,2)", got)
	}
}

// TestTransformNonPositiveScale: a non-positive time scale panics at the
// first segment, as Seg.Transformed does, so an empty source stays valid.
func TestTransformNonPositiveScale(t *testing.T) {
	if n := len(Collect(Transform(FromSlice(nil), geom.IdentityAffine, 0))); n != 0 {
		t.Fatalf("empty source yielded %d segments", n)
	}
	defer func() {
		if p := recover(); p != "segment: Transformed with non-positive time scale 0" {
			t.Fatalf("panic %v, want Transformed's non-positive time scale panic", p)
		}
	}()
	Collect(Transform(FromSlice([]segment.Seg{line(0, 0, 1, 0)}), geom.IdentityAffine, 0))
}

func TestTruncate(t *testing.T) {
	src := Repeat(func(int) Source {
		return FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 0, 0)})
	})
	segs := Collect(Truncate(src, 5))
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

func TestCheckContinuity(t *testing.T) {
	good := FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 1, 1)})
	if gap, n := CheckContinuity(good); gap != 0 || n != 2 {
		t.Errorf("good: gap=%v n=%d, want 0, 2", gap, n)
	}
	bad := FromSlice([]segment.Seg{line(0, 0, 1, 0), line(2, 0, 3, 0)})
	if gap, _ := CheckContinuity(bad); math.Abs(gap-1) > 1e-12 {
		t.Errorf("bad: gap=%v, want 1", gap)
	}
}

func TestPathPosition(t *testing.T) {
	p := NewPath(FromSlice([]segment.Seg{
		line(0, 0, 2, 0),                       // t in [0,2]
		segment.NewWait(geom.V(2, 0), 1).Seg(), // t in [2,3]
		line(2, 0, 2, 2),                       // t in [3,5]
	}))
	defer p.Close()

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
	p := NewPath(FromSlice([]segment.Seg{line(0, 0, 1, 0), line(1, 0, 2, 0)}))
	defer p.Close()
	if got := p.Position(1.5); !got.ApproxEqual(geom.V(1.5, 0), 1e-12) {
		t.Errorf("forward query = %v", got)
	}
	// Backward query must hit the cache, not the exhausted iterator.
	if got := p.Position(0.25); !got.ApproxEqual(geom.V(0.25, 0), 1e-12) {
		t.Errorf("backward query = %v", got)
	}
}

func TestPathSegmentAt(t *testing.T) {
	p := NewPath(FromSlice([]segment.Seg{line(0, 0, 1, 0), segment.NewWait(geom.V(1, 0), 2).Seg()}))
	defer p.Close()

	seg, start, ok := p.SegmentAt(0.5)
	if !ok || start != 0 {
		t.Fatalf("SegmentAt(0.5): ok=%v start=%v", ok, start)
	}
	if seg.Kind() != segment.KindLine {
		t.Errorf("SegmentAt(0.5) kind = %v, want line", seg.Kind())
	}
	seg, start, ok = p.SegmentAt(1.5)
	if !ok || start != 1 {
		t.Fatalf("SegmentAt(1.5): ok=%v start=%v", ok, start)
	}
	if seg.Kind() != segment.KindWait {
		t.Errorf("SegmentAt(1.5) kind = %v, want wait", seg.Kind())
	}
	// Boundary time belongs to the later segment.
	seg, _, ok = p.SegmentAt(1.0)
	if !ok {
		t.Fatal("SegmentAt(1.0) not ok")
	}
	if seg.Kind() != segment.KindWait {
		t.Errorf("SegmentAt(1.0) kind = %v, want wait", seg.Kind())
	}
	// Past the end of a finite path.
	if _, _, ok := p.SegmentAt(99); ok {
		t.Error("SegmentAt past end reported ok")
	}
}

func TestPathLazyConsumption(t *testing.T) {
	pulled := 0
	src := Source(func(yield func(segment.Seg) bool) {
		for i := 0; ; i++ {
			pulled++
			from := geom.V(float64(i), 0)
			to := geom.V(float64(i+1), 0)
			if !yield(segment.UnitLine(from, to).Seg()) {
				return
			}
		}
	})
	p := NewPath(src)
	defer p.Close()
	p.Position(2.5)
	// The cursor buffers one read-ahead window (64 segments) in a single
	// generator invocation; laziness now means "bounded read-ahead", not
	// "exactly as many as queried".
	if pulled > 65 {
		t.Errorf("pulled %d segments for a query at t=2.5, want <= one cursor window", pulled)
	}
	if c := p.CachedSegments(); c < 3 {
		t.Errorf("cached %d segments, want >= 3", c)
	}
}

func TestPathEndKnown(t *testing.T) {
	p := NewPath(FromSlice([]segment.Seg{line(0, 0, 1, 0)}))
	defer p.Close()
	if _, known := p.EndKnown(); known {
		t.Error("end known before any query")
	}
	p.Position(10)
	total, known := p.EndKnown()
	if !known || math.Abs(total-1) > 1e-12 {
		t.Errorf("EndKnown = (%v, %v), want (1, true)", total, known)
	}
}

func TestPathEmptySource(t *testing.T) {
	p := NewPath(FromSlice(nil))
	defer p.Close()
	if got := p.Position(1); got != geom.Zero {
		t.Errorf("empty path Position = %v, want origin", got)
	}
	if _, _, ok := p.SegmentAt(0); ok {
		t.Error("empty path SegmentAt reported ok")
	}
}

func TestStationary(t *testing.T) {
	p := NewPath(Stationary(geom.V(4, 2)))
	defer p.Close()
	for _, tt := range []float64{0, 1, 1e9} {
		if got := p.Position(tt); got != geom.V(4, 2) {
			t.Errorf("Position(%v) = %v, want (4,2)", tt, got)
		}
	}
}
