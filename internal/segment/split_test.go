package segment

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestPrefixWait(t *testing.T) {
	w := NewWait(geom.V(2, 3), 8)
	p := Prefix(w.Seg(), 3)
	if got, ok := p.AsWait(); !ok || got.Time != 3 || got.At != geom.V(2, 3) {
		t.Errorf("Prefix(Wait, 3) = %#v", p)
	}
	if got := Prefix(w.Seg(), 20); got != w.Seg() {
		t.Error("over-long wait prefix should return the original")
	}
}

func TestPrefixLineExactGeometry(t *testing.T) {
	l := NewLine(geom.V(1, 1), geom.V(5, 4), 2) // length 5, duration 2.5
	p := Prefix(l.Seg(), 1.0)
	if got, want := p.Duration(), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("duration = %v, want %v", got, want)
	}
	if got, want := p.End(), l.Position(1.0); !got.ApproxEqual(want, 1e-12) {
		t.Errorf("end = %v, want %v", got, want)
	}
	if got, _ := p.AsLine(); got.Speed != 2 {
		t.Errorf("speed = %v, want 2", got.Speed)
	}
}

func TestPrefixArcPreservesHandedness(t *testing.T) {
	cw := NewArc(geom.Zero, 2, 1.0, -3.0, 1.5)
	pre := Prefix(cw.Seg(), cw.Duration()/3)
	p, _ := pre.AsArc()
	if p.Sweep >= 0 {
		t.Errorf("clockwise prefix sweep = %v, want negative", p.Sweep)
	}
	if math.Abs(p.Sweep+1.0) > 1e-12 {
		t.Errorf("sweep = %v, want -1", p.Sweep)
	}
	if got, want := p.End(), cw.Position(cw.Duration()/3); !got.ApproxEqual(want, 1e-12) {
		t.Errorf("end = %v, want %v", got, want)
	}
}

func TestPrefixZeroAndNegative(t *testing.T) {
	l := UnitLine(geom.Zero, geom.V(1, 0))
	for _, d := range []float64{0, -5} {
		p := Prefix(l.Seg(), d)
		if p.Duration() != 0 {
			t.Errorf("Prefix(%v) duration = %v, want 0", d, p.Duration())
		}
		if p.Start() != geom.Zero {
			t.Errorf("Prefix(%v) start = %v, want origin", d, p.Start())
		}
	}
}

func TestWaitEndpoints(t *testing.T) {
	w := NewWait(geom.V(7, -2), 4)
	if w.Start() != geom.V(7, -2) || w.End() != geom.V(7, -2) {
		t.Errorf("wait endpoints = %v, %v", w.Start(), w.End())
	}
}

func TestTransformedPathLength(t *testing.T) {
	// A similarity with scale 0.5 halves the length exactly.
	f := NewFrame(geom.Affine{M: geom.FrameMatrix(0.5, 1.1, +1)}, 2)
	lineSeg := UnitLine(geom.Zero, geom.V(4, 0)).Seg()
	if _, got := f.DurationAndLength(&lineSeg); math.Abs(got-2) > 1e-9 {
		t.Errorf("PathLength = %v, want 2", got)
	}
}

func TestNewArcPanics(t *testing.T) {
	t.Run("negative-radius", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		NewArc(geom.Zero, -1, 0, 1, 1)
	})
	t.Run("zero-speed", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		NewArc(geom.Zero, 1, 0, 1, 0)
	})
}

func TestDegenerateArc(t *testing.T) {
	a := Arc{Center: geom.V(1, 1), Radius: 0, Sweep: 2}
	if a.Duration() != 0 || a.MaxSpeed() != 0 {
		t.Errorf("degenerate arc duration/speed = %v/%v", a.Duration(), a.MaxSpeed())
	}
	if a.AngularVelocity() != 0 {
		t.Errorf("degenerate arc ω = %v", a.AngularVelocity())
	}
	if got := a.Position(1); got != geom.V(1, 1) {
		t.Errorf("degenerate arc position = %v, want the center (1,1)", got)
	}
}
