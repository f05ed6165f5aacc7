package segment

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestLine(t *testing.T) {
	l := UnitLine(geom.V(0, 0), geom.V(3, 4))
	if got := l.Duration(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Duration = %v, want 5", got)
	}
	if got := l.Position(2.5); !got.ApproxEqual(geom.V(1.5, 2), 1e-12) {
		t.Errorf("Position(2.5) = %v, want (1.5,2)", got)
	}
	if got := l.Position(-1); got != l.From {
		t.Errorf("Position(-1) = %v, want clamped to %v", got, l.From)
	}
	if got := l.Position(99); got != l.To {
		t.Errorf("Position(99) = %v, want clamped to %v", got, l.To)
	}
	if got := l.MaxSpeed(); got != 1 {
		t.Errorf("MaxSpeed = %v, want 1", got)
	}
	if got := l.PathLength(); math.Abs(got-5) > 1e-12 {
		t.Errorf("PathLength = %v, want 5", got)
	}

	fast := NewLine(geom.V(0, 0), geom.V(10, 0), 2)
	if got := fast.Duration(); math.Abs(got-5) > 1e-12 {
		t.Errorf("fast Duration = %v, want 5", got)
	}
}

func TestLineDegenerate(t *testing.T) {
	l := Line{From: geom.V(1, 1), To: geom.V(1, 1)}
	if got := l.Duration(); got != 0 {
		t.Errorf("degenerate Duration = %v, want 0", got)
	}
	if got := l.MaxSpeed(); got != 0 {
		t.Errorf("degenerate MaxSpeed = %v, want 0", got)
	}
	if got := l.Position(0.5); got != geom.V(1, 1) {
		t.Errorf("degenerate Position = %v, want (1,1)", got)
	}
}

func TestNewLinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero speed with distinct endpoints")
		}
	}()
	NewLine(geom.V(0, 0), geom.V(1, 0), 0)
}

func TestWait(t *testing.T) {
	w := NewWait(geom.V(2, 3), 7)
	if got := w.Duration(); got != 7 {
		t.Errorf("Duration = %v, want 7", got)
	}
	for _, tt := range []float64{-1, 0, 3.5, 7, 100} {
		if got := w.Position(tt); got != geom.V(2, 3) {
			t.Errorf("Position(%v) = %v, want (2,3)", tt, got)
		}
	}
	if got := w.MaxSpeed(); got != 0 {
		t.Errorf("MaxSpeed = %v, want 0", got)
	}
	if got := w.PathLength(); got != 0 {
		t.Errorf("PathLength = %v, want 0", got)
	}
}

func TestNewWaitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative wait")
		}
	}()
	NewWait(geom.Zero, -1)
}

func TestArcFullCircle(t *testing.T) {
	a := FullCircle(geom.Zero, 2, 0)
	if got, want := a.Duration(), 4*math.Pi; math.Abs(got-want) > 1e-12 {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	if got := a.Start(); !got.ApproxEqual(geom.V(2, 0), 1e-12) {
		t.Errorf("Start = %v, want (2,0)", got)
	}
	if got := a.End(); !got.ApproxEqual(geom.V(2, 0), 1e-9) {
		t.Errorf("End = %v, want (2,0)", got)
	}
	// Quarter of the way round.
	if got := a.Position(a.Duration() / 4); !got.ApproxEqual(geom.V(0, 2), 1e-9) {
		t.Errorf("quarter Position = %v, want (0,2)", got)
	}
	if got := a.MaxSpeed(); got != 1 {
		t.Errorf("MaxSpeed = %v, want 1", got)
	}
	if got, want := a.PathLength(), 4*math.Pi; math.Abs(got-want) > 1e-12 {
		t.Errorf("PathLength = %v, want %v", got, want)
	}
}

func TestArcClockwise(t *testing.T) {
	a := NewArc(geom.Zero, 1, 0, -math.Pi/2, 1)
	if got := a.End(); !got.ApproxEqual(geom.V(0, -1), 1e-12) {
		t.Errorf("End = %v, want (0,-1)", got)
	}
	if got := a.AngularVelocity(); math.Abs(got+1) > 1e-12 {
		t.Errorf("AngularVelocity = %v, want -1 (unit speed, unit radius, CW)", got)
	}
}

// TestArcSpeedIsConstant samples the numeric derivative of an arc and checks
// it equals the declared speed everywhere.
func TestArcSpeedIsConstant(t *testing.T) {
	a := NewArc(geom.V(1, -2), 3, 0.7, 1.9, 2.5)
	const h = 1e-7
	for i := 1; i < 20; i++ {
		tt := a.Duration() * float64(i) / 20
		v := a.Position(tt + h).Sub(a.Position(tt - h)).Scale(1 / (2 * h)).Norm()
		if math.Abs(v-2.5) > 1e-5 {
			t.Errorf("speed at t=%v is %v, want 2.5", tt, v)
		}
	}
}

func TestArcStaysOnCircle(t *testing.T) {
	f := func(radius, start, sweep, frac float64) bool {
		radius = 0.1 + math.Abs(math.Mod(radius, 10))
		start = math.Mod(start, 2*math.Pi)
		sweep = math.Mod(sweep, 4*math.Pi)
		frac = math.Abs(math.Mod(frac, 1))
		if math.IsNaN(radius) || math.IsNaN(start) || math.IsNaN(sweep) || math.IsNaN(frac) {
			return true
		}
		a := NewArc(geom.V(5, -3), radius, start, sweep, 1)
		p := a.Position(frac * a.Duration())
		return math.Abs(p.Dist(a.Center)-radius) <= 1e-9*math.Max(1, radius)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransformedIdentity(t *testing.T) {
	inner := UnitLine(geom.V(0, 0), geom.V(1, 1))
	innerSeg := inner.Seg()
	f := NewFrame(geom.IdentityAffine, 1)
	if got, _ := f.DurationAndLength(&innerSeg); math.Abs(got-inner.Duration()) > 1e-12 {
		t.Errorf("Duration = %v, want %v", got, inner.Duration())
	}
	for _, tt := range []float64{0, 0.3, 1, inner.Duration()} {
		if got := f.Position(&innerSeg, tt); !got.ApproxEqual(inner.Position(tt), 1e-12) {
			t.Errorf("Position(%v) = %v, want %v", tt, got, inner.Position(tt))
		}
	}
}

// TestTransformedFrameSemantics checks the paper's frame interpretation: a
// robot with speed v and clock unit τ executing "move distance δ along +x"
// covers global distance vτδ in global time τδ at global speed v.
func TestTransformedFrameSemantics(t *testing.T) {
	const (
		v, tau, phi = 0.5, 2.0, math.Pi / 2
		delta       = 3.0
	)
	inner := UnitLine(geom.Zero, geom.V(delta, 0)) // local: distance δ, time δ
	f := NewFrame(geom.Affine{M: geom.FrameMatrix(v*tau, phi, +1)}, tau)
	s := inner.Seg()

	dur, length := f.DurationAndLength(&s)
	if want := tau * delta; math.Abs(dur-want) > 1e-12 {
		t.Errorf("global duration = %v, want τδ = %v", dur, want)
	}
	start, end := f.Endpoints(&s)
	if got, want := end.Sub(start).Norm(), v*tau*delta; math.Abs(got-want) > 1e-12 || math.Abs(length-want) > 1e-12 {
		t.Errorf("global distance = %v (length %v), want vτδ = %v", got, length, want)
	}
	if got := f.MaxSpeed(&s); math.Abs(got-v) > 1e-12 {
		t.Errorf("global speed = %v, want v = %v", got, v)
	}
	// Rotated by φ = π/2: end point is vτδ along +y.
	if !end.ApproxEqual(geom.V(0, v*tau*delta), 1e-9) {
		t.Errorf("End = %v, want (0, %v)", end, v*tau*delta)
	}
	if got := f.Position(&s, dur); got != end {
		t.Errorf("Position(duration) = %v, want End %v", got, end)
	}
}

func TestTransformedChirality(t *testing.T) {
	// χ = −1 mirrors the trajectory about the x-axis.
	s := UnitLine(geom.Zero, geom.V(1, 1)).Seg()
	f := NewFrame(geom.Affine{M: geom.FrameMatrix(1, 0, -1)}, 1)
	if _, got := f.Endpoints(&s); !got.ApproxEqual(geom.V(1, -1), 1e-12) {
		t.Errorf("End = %v, want (1,-1)", got)
	}
}

func TestTransformedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive time scale")
		}
	}()
	NewFrame(geom.IdentityAffine, 0)
}

// TestTransformedTwicePanics: a segment carries at most one time dilation.
func TestTransformedTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a second time dilation")
		}
	}()
	w := Wait{At: geom.V(1, 1), Time: 1}.Seg()
	s := w.Dilated(2)
	s.Dilated(2)
}

// TestFrameModulatedDilationOutside: a modulated segment under a frame
// lasts (d·τ)·mod and sits at M·p(t/mod/τ) + T — the dilation stays outside
// the frame's clock.
func TestFrameModulatedDilationOutside(t *testing.T) {
	raw := NewArc(geom.V(1, 0), 2, 0.4, 2.5, 1).Seg()
	s := raw.Dilated(1.7)
	m := geom.Affine{M: geom.FrameMatrix(0.6, 0.9, -1), T: geom.V(-1, 3)}
	f := NewFrame(m, 1.3)
	d, _ := raw.DurationAndLength()
	if got, _ := f.DurationAndLength(&s); got != d*1.3*1.7 {
		t.Errorf("duration %v, want (d·τ)·mod = %v", got, d*1.3*1.7)
	}
	for _, tt := range []float64{0, 0.5, 2, 5} {
		want := m.Apply(raw.Position(tt / 1.7 / 1.3))
		if got := f.Position(&s, tt); got != want {
			t.Errorf("Position(%v) = %v, want %v", tt, got, want)
		}
	}
	if got, want := f.MaxSpeed(&s), raw.MaxSpeed()*m.M.OperatorNorm()/1.3/1.7; got != want {
		t.Errorf("MaxSpeed %v, want %v", got, want)
	}
	if _, ok := f.ArcAtDur(&s, 1); ok {
		t.Error("ArcAtDur accepted a modulated arc under a frame")
	}
}

func TestArcAtBareArc(t *testing.T) {
	a := NewArc(geom.V(1, 2), 3, 0.5, 1.5, 2)
	aSeg := a.Seg()
	g, ok := ArcAtDur(&aSeg, aSeg.Duration())
	if !ok {
		t.Fatal("ArcAt failed on bare arc")
	}
	if g.Center != a.Center || math.Abs(g.Radius-3) > 1e-12 {
		t.Errorf("geometry = %+v", g)
	}
	for _, tt := range []float64{0, 0.4, 1.1, g.Duration} {
		if got, want := g.Position(tt), a.Position(tt); !got.ApproxEqual(want, 1e-9) {
			t.Errorf("Position(%v): geometry %v, segment %v", tt, got, want)
		}
	}
}

func TestArcAtTransformed(t *testing.T) {
	inner := NewArc(geom.V(2, 0), 1.5, 0.3, 2.2, 1)
	cases := []struct {
		name string
		m    geom.Affine
		tau  float64
	}{
		{"rotation", geom.Affine{M: geom.FrameMatrix(0.7, 1.1, +1), T: geom.V(3, -1)}, 1.0},
		{"reflection", geom.Affine{M: geom.FrameMatrix(0.7, 1.1, -1), T: geom.V(3, -1)}, 1.0},
		{"time-dilated", geom.Affine{M: geom.FrameMatrix(1.3, 0.2, +1)}, 2.5},
		{"reflected-dilated", geom.Affine{M: geom.FrameMatrix(0.4, 5.0, -1), T: geom.V(-2, 2)}, 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := inner.Seg()
			f := NewFrame(c.m, c.tau)
			dur, _ := f.DurationAndLength(&s)
			g, ok := f.ArcAtDur(&s, dur)
			if !ok {
				t.Fatal("ArcAtDur failed on a similarity-framed arc")
			}
			if want := inner.Duration() * c.tau; math.Abs(g.Duration-want) > 1e-12*want {
				t.Errorf("Duration = %v, want %v", g.Duration, want)
			}
			for i := 0; i <= 10; i++ {
				tt := g.Duration * float64(i) / 10
				got, want := g.Position(tt), f.Position(&s, tt)
				if !got.ApproxEqual(want, 1e-9) {
					t.Errorf("Position(%v): geometry %v, transformed %v", tt, got, want)
				}
			}
		})
	}
}

func TestArcAtRejectsNonArc(t *testing.T) {
	lineSeg := UnitLine(geom.Zero, geom.V(1, 0)).Seg()
	if _, ok := ArcAtDur(&lineSeg, 1); ok {
		t.Error("ArcAtDur accepted a line")
	}
	id := NewFrame(geom.IdentityAffine, 1)
	if _, ok := id.ArcAtDur(&lineSeg, 1); ok {
		t.Error("Frame.ArcAtDur accepted a line")
	}
	// Non-similarity map over an arc must be rejected.
	shear := NewFrame(geom.Affine{M: geom.Mat{A: 1, B: 1, D: 1}}, 1)
	arcSeg := NewArc(geom.Zero, 1, 0, 1, 1).Seg()
	if _, ok := shear.ArcAtDur(&arcSeg, 1); ok {
		t.Error("ArcAtDur accepted a sheared arc")
	}
}

func TestTransformedMaxSpeedBound(t *testing.T) {
	// The declared MaxSpeed must bound the sampled numerical speed.
	inner := NewArc(geom.V(1, 1), 2, 0, 3, 1.5)
	m := geom.Affine{M: geom.FrameMatrix(0.8, 2.1, -1), T: geom.V(5, 5)}
	s := inner.Seg()
	f := NewFrame(m, 1.7)
	bound := f.MaxSpeed(&s)
	dur, _ := f.DurationAndLength(&s)
	const h = 1e-7
	for i := 1; i < 50; i++ {
		tt := dur * float64(i) / 50
		v := f.Position(&s, tt+h).Sub(f.Position(&s, tt-h)).Scale(1 / (2 * h)).Norm()
		if v > bound*(1+1e-5) {
			t.Errorf("sampled speed %v exceeds bound %v at t=%v", v, bound, tt)
		}
	}
}

// TestSettersMatchConstructors: the in-place setters write exactly the Seg
// the constructors build, and panic on exactly the arguments they reject.
func TestSettersMatchConstructors(t *testing.T) {
	s := NewWait(geom.Zero, 1).Seg()
	s = s.Dilated(2) // a stale dilation must not survive a setter
	s.SetWait(geom.V(1, 2), 3)
	if want := NewWait(geom.V(1, 2), 3).Seg(); s != want {
		t.Errorf("SetWait = %#v, want %#v", s, want)
	}
	s.SetLine(geom.V(1, 2), geom.V(-3, 4), 0.5)
	if want := NewLine(geom.V(1, 2), geom.V(-3, 4), 0.5).Seg(); s != want {
		t.Errorf("SetLine = %#v, want %#v", s, want)
	}
	s.SetArc(geom.V(1, 2), 3, 0.25, -math.Pi, 2)
	if want := NewArc(geom.V(1, 2), 3, 0.25, -math.Pi, 2).Seg(); s != want {
		t.Errorf("SetArc = %#v, want %#v", s, want)
	}
	panics := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	for _, c := range []struct {
		name       string
		set, build func()
	}{
		{"wait", func() { s.SetWait(geom.Zero, -1) }, func() { NewWait(geom.Zero, -1) }},
		{"line", func() { s.SetLine(geom.Zero, geom.V(1, 0), 0) }, func() { NewLine(geom.Zero, geom.V(1, 0), 0) }},
		{"arc radius", func() { s.SetArc(geom.Zero, -1, 0, 1, 1) }, func() { NewArc(geom.Zero, -1, 0, 1, 1) }},
		{"arc speed", func() { s.SetArc(geom.Zero, 1, 0, 1, 0) }, func() { NewArc(geom.Zero, 1, 0, 1, 0) }},
	} {
		got, want := panics(c.set), panics(c.build)
		if got == nil || got != want {
			t.Errorf("%s: setter panics with %v, constructor with %v", c.name, got, want)
		}
	}
}
