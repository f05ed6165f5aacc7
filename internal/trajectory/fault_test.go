package trajectory

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

func TestCutAtExactDuration(t *testing.T) {
	src := FromSlice([]segment.Seg{
		line(0, 0, 2, 0), // [0, 2]
		segment.FullCircle(geom.V(1, 0), 1, 0).Seg(), // [2, 2+2π]
		line(2, 0, 5, 0),
	})
	for _, cut := range []float64{0.5, 2, 3.7, 2 + 2*math.Pi, 7} {
		got := Duration(CutAt(src, cut))
		want := math.Min(cut, 2+2*math.Pi+3)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("CutAt(%v): duration %v, want %v", cut, got, want)
		}
	}
	// A crash before moving pins the robot at its start, not at the origin.
	earlyCrash := CutAt(FromSlice([]segment.Seg{line(5, 5, 6, 5)}), -1)
	p := NewPath(earlyCrash, nil)
	if got := p.Position(100); got != geom.V(5, 5) {
		t.Errorf("crash-at-start position = %v, want (5,5)", got)
	}
}

func TestCutAtPositionsMatch(t *testing.T) {
	src := func() Source {
		return FromSlice([]segment.Seg{
			line(0, 0, 2, 0),
			segment.FullCircle(geom.V(1, 0), 1, 0).Seg(),
		})
	}
	cut := 3.3
	full := NewPath(src(), nil)
	cutp := NewPath(CutAt(src(), cut), nil)
	for _, tt := range []float64{0, 1, 2.5, 3.3} {
		if !cutp.Position(tt).ApproxEqual(full.Position(tt), 1e-12) {
			t.Errorf("position diverges at t=%v before the cut", tt)
		}
	}
	// After the cut the robot is frozen at the cut position.
	want := full.Position(cut)
	for _, tt := range []float64{3.3, 4, 100} {
		if !cutp.Position(tt).ApproxEqual(want, 1e-12) {
			t.Errorf("cut robot moved at t=%v: %v != %v", tt, cutp.Position(tt), want)
		}
	}
}

func TestCutAtInfinite(t *testing.T) {
	src := Repeat(func(i int) Source {
		from := geom.V(float64(i-1), 0)
		return FromSlice([]segment.Seg{segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()})
	})
	if d := Duration(CutAt(src, 10.5)); math.Abs(d-10.5) > 1e-12 {
		t.Errorf("cut infinite source duration = %v, want 10.5", d)
	}
}

func TestDelayStart(t *testing.T) {
	src := func() Source { return FromSlice([]segment.Seg{line(1, 1, 2, 1)}) }
	delayed := NewPath(DelayStart(src(), 3), nil)
	if got := delayed.Position(2); got != geom.V(1, 1) {
		t.Errorf("during delay at %v, want (1,1)", got)
	}
	if got := delayed.Position(3.5); !got.ApproxEqual(geom.V(1.5, 1), 1e-12) {
		t.Errorf("after delay = %v, want (1.5,1)", got)
	}
	// Zero/negative delay is a no-op.
	if d := Duration(DelayStart(src(), 0)); math.Abs(d-1) > 1e-12 {
		t.Errorf("no-op delay changed duration to %v", d)
	}
	// Empty source still yields the wait.
	if d := Duration(DelayStart(FromSlice(nil), 2)); math.Abs(d-2) > 1e-12 {
		t.Errorf("empty-source delay duration = %v, want 2", d)
	}
}

func TestFreezeDuring(t *testing.T) {
	src := func() Source {
		return FromSlice([]segment.Seg{line(0, 0, 4, 0)}) // [0, 4]
	}
	frozen := NewPath(FreezeDuring(src(), 1, 3), nil)

	tests := []struct {
		t    float64
		want geom.Vec
	}{
		{0.5, geom.V(0.5, 0)}, // before the outage
		{1, geom.V(1, 0)},     // outage begins
		{2, geom.V(1, 0)},     // frozen
		{3, geom.V(1, 0)},     // outage ends
		{4, geom.V(2, 0)},     // resumed, shifted by 2
		{6, geom.V(4, 0)},     // program completes at 4+2
	}
	for _, tt := range tests {
		if got := frozen.Position(tt.t); !got.ApproxEqual(tt.want, 1e-12) {
			t.Errorf("Position(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	// Total duration stretched by the outage length.
	if d := Duration(FreezeDuring(src(), 1, 3)); math.Abs(d-6) > 1e-12 {
		t.Errorf("frozen duration = %v, want 6", d)
	}
	// Degenerate window: no-op.
	if d := Duration(FreezeDuring(src(), 3, 3)); math.Abs(d-4) > 1e-12 {
		t.Errorf("degenerate freeze changed duration to %v", d)
	}
}

func TestFreezeDuringArc(t *testing.T) {
	src := func() Source {
		return FromSlice([]segment.Seg{segment.FullCircle(geom.Zero, 1, 0).Seg()})
	}
	freezeAt := math.Pi / 2 // quarter way round, at (0, 1)
	frozen := NewPath(FreezeDuring(src(), freezeAt, freezeAt+5), nil)
	at := frozen.Position(freezeAt + 2.5)
	if !at.ApproxEqual(geom.V(0, 1), 1e-9) {
		t.Errorf("frozen at %v, want (0,1)", at)
	}
	// Resumes along the circle.
	resumed := frozen.Position(freezeAt + 5 + math.Pi/2)
	if !resumed.ApproxEqual(geom.V(-1, 0), 1e-9) {
		t.Errorf("resumed at %v, want (-1,0)", resumed)
	}
	if _, gap := collect(FreezeDuring(src(), freezeAt, freezeAt+5)); gap > 1e-12 {
		t.Errorf("continuity gap %v after freeze", gap)
	}
}

func TestPrefixSegments(t *testing.T) {
	// Line prefix.
	l := segment.NewLine(geom.V(0, 0), geom.V(4, 0), 2).Seg() // duration 2
	half := segment.Prefix(l, 1)
	if got := half.End(); !got.ApproxEqual(geom.V(2, 0), 1e-12) {
		t.Errorf("line prefix end = %v", got)
	}
	if math.Abs(half.Duration()-1) > 1e-12 {
		t.Errorf("line prefix duration = %v", half.Duration())
	}
	// Arc prefix.
	a := segment.FullCircle(geom.Zero, 1, 0).Seg()
	quarter := segment.Prefix(a, math.Pi/2)
	if got := quarter.End(); !got.ApproxEqual(geom.V(0, 1), 1e-9) {
		t.Errorf("arc prefix end = %v, want (0,1)", got)
	}
	// Wait prefix.
	w := segment.NewWait(geom.V(1, 1), 10).Seg()
	if got := segment.Prefix(w, 3); math.Abs(got.Duration()-3) > 1e-12 {
		t.Errorf("wait prefix duration = %v", got.Duration())
	}
	// Clamping.
	if got := segment.Prefix(l, 99); got != l {
		t.Error("over-long prefix should return the original segment")
	}
	if got := segment.Prefix(l, -1); got.Duration() != 0 {
		t.Errorf("negative prefix duration = %v", got.Duration())
	}
	// Dilated prefix.
	tr := a.Dilated(2)
	pre := segment.Prefix(tr, tr.Duration()/4)
	if !pre.End().ApproxEqual(tr.Position(tr.Duration()/4), 1e-9) {
		t.Errorf("dilated prefix end = %v, want %v", pre.End(), tr.Position(tr.Duration()/4))
	}
}
