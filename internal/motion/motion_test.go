package motion

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

// positioner is anything with a position at absolute time t.
type positioner interface{ At(t float64) geom.Vec }

// referenceFirstContact is a brute-force sampled detector used to validate
// the closed forms: it scans [t0, t1] at a fine step and bisects the first
// bracketing step. Slow but independent of the production code paths.
func referenceFirstContact(a, b positioner, r, t0, t1 float64, steps int) (float64, bool) {
	gap := func(t float64) float64 { return a.At(t).Dist(b.At(t)) - r }
	h := (t1 - t0) / float64(steps)
	prev := gap(t0)
	if prev <= 0 {
		return t0, true
	}
	for i := 1; i <= steps; i++ {
		t := t0 + float64(i)*h
		g := gap(t)
		if g <= 0 {
			lo, hi := t-h, t
			for range 200 {
				mid := (lo + hi) / 2
				if gap(mid) <= 0 {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi, true
		}
		prev = g
	}
	_ = prev
	return 0, false
}

// mover returns a Mover holding the Linear or Circular motion m.
func mover(m positioner) Mover {
	switch m := m.(type) {
	case Linear:
		return Mover{kind: moverLinear, lin: m}
	case Circular:
		return circularMover(m)
	}
	panic("mover: not a Linear or Circular motion")
}

// contact is Contact over Movers holding the motions a and b.
func contact(a, b positioner, r, t0, t1 float64, opt Options) (float64, bool, error) {
	ma, mb := mover(a), mover(b)
	return Contact(&ma, &mb, r, t0, t1, opt)
}

// fn is a motion given by its position function and speed bound, for
// driving SafeAdvance directly.
type fn struct {
	at    func(float64) geom.Vec
	bound float64
}

func (m fn) At(t float64) geom.Vec { return m.at(t) }
func (m fn) SpeedBound() float64   { return m.bound }

func TestLinearLinearHeadOn(t *testing.T) {
	// Two points approaching head-on at combined speed 2, starting 10 apart,
	// contact radius 1: contact at t = 4.5.
	a := Linear{P0: geom.V(0, 0), Vel: geom.V(1, 0)}
	b := Linear{P0: geom.V(10, 0), Vel: geom.V(-1, 0)}
	got, found, err := contact(a, b, 1, 0, 100, DefaultOptions(1))
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if math.Abs(got-4.5) > 1e-9 {
		t.Errorf("contact at %v, want 4.5", got)
	}
}

func TestLinearLinearMiss(t *testing.T) {
	// Parallel tracks 3 apart never reach radius 1.
	a := Linear{P0: geom.V(0, 0), Vel: geom.V(1, 0)}
	b := Linear{P0: geom.V(0, 3), Vel: geom.V(1, 0)}
	if _, found, _ := contact(a, b, 1, 0, 1e6, DefaultOptions(1)); found {
		t.Error("parallel motions reported contact")
	}
}

func TestLinearLinearGrazing(t *testing.T) {
	// Perpendicular passage with closest approach exactly r: tangential
	// contact at the closest-approach instant.
	a := Linear{P0: geom.V(-10, 1), Vel: geom.V(1, 0)}
	b := Static(geom.V(0, 0))
	got, found, err := contact(a, b, 1, 0, 100, DefaultOptions(1))
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if math.Abs(got-10) > 1e-5 {
		t.Errorf("grazing contact at %v, want 10", got)
	}
}

func TestLinearLinearAlreadyInContact(t *testing.T) {
	a := Static(geom.V(0, 0))
	b := Static(geom.V(0.5, 0))
	got, found, _ := contact(a, b, 1, 3, 100, DefaultOptions(1))
	if !found || got != 3 {
		t.Errorf("got (%v, %v), want (3, true)", got, found)
	}
}

func TestLinearLinearIntervalCutoff(t *testing.T) {
	a := Linear{P0: geom.V(0, 0), Vel: geom.V(1, 0)}
	b := Static(geom.V(10, 0))
	// Contact would be at t=9 with r=1, but the interval ends at 8.
	if _, found, _ := contact(a, b, 1, 0, 8, DefaultOptions(1)); found {
		t.Error("contact reported before interval end")
	}
	got, found, _ := contact(a, b, 1, 0, 9.5, DefaultOptions(1))
	if !found || math.Abs(got-9) > 1e-9 {
		t.Errorf("got (%v, %v), want (9, true)", got, found)
	}
}

func TestLinearLinearAgainstReference(t *testing.T) {
	cases := []struct {
		a, b Linear
		r    float64
	}{
		{Linear{P0: geom.V(-3, 2), Vel: geom.V(0.7, -0.4)}, Linear{P0: geom.V(4, -1), Vel: geom.V(-0.5, 0.3)}, 0.8},
		{Linear{P0: geom.V(0, 5), Vel: geom.V(0.3, -1)}, Linear{P0: geom.V(0, -5), Vel: geom.V(0.3, 1)}, 0.25},
		{Linear{P0: geom.V(2, 2), Vel: geom.V(1, 1)}, Static(geom.V(9, 9)), 0.5},
	}
	for i, c := range cases {
		want, wantFound := referenceFirstContact(c.a, c.b, c.r, 0, 50, 200000)
		got, found, err := contact(c.a, c.b, c.r, 0, 50, DefaultOptions(c.r))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if found != wantFound {
			t.Errorf("case %d: found=%v, want %v", i, found, wantFound)
			continue
		}
		if found && math.Abs(got-want) > 1e-3 {
			t.Errorf("case %d: contact at %v, reference %v", i, got, want)
		}
	}
}

func TestCircularStaticBasic(t *testing.T) {
	// Point on unit circle about origin starting at angle 0, CCW at ω = 1.
	// Static target at (0, 2), r = 1: contact exactly when the mover reaches
	// (0, 1), i.e. after a quarter turn, t = π/2.
	c := Circular{Center: geom.Zero, Radius: 1, Theta0: 0, Omega: 1}
	p := Static(geom.V(0, 2))
	got, found, err := contact(c, p, 1, 0, 10, DefaultOptions(1))
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("contact at %v, want π/2", got)
	}
	// Same with the operands swapped (dispatch must handle both orders).
	got2, found2, err := contact(p, c, 1, 0, 10, DefaultOptions(1))
	if err != nil || !found2 || math.Abs(got2-got) > 1e-12 {
		t.Errorf("swapped operands: (%v, %v), want (%v, true)", got2, found2, got)
	}
}

func TestCircularStaticClockwise(t *testing.T) {
	// Clockwise motion reaches (0, -1) after a quarter turn.
	c := Circular{Center: geom.Zero, Radius: 1, Theta0: 0, Omega: -1}
	p := Static(geom.V(0, -2))
	got, found, err := contact(c, p, 1, 0, 10, DefaultOptions(1))
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("contact at %v, want π/2", got)
	}
}

func TestCircularStaticNever(t *testing.T) {
	// Target 5 away from the circle's nearest point, r = 1: never.
	c := Circular{Center: geom.Zero, Radius: 1, Theta0: 0, Omega: 2}
	p := Static(geom.V(7, 0))
	if _, found, _ := contact(c, p, 1, 0, 1e6, DefaultOptions(1)); found {
		t.Error("unreachable target reported contact")
	}
}

func TestCircularStaticAlways(t *testing.T) {
	// Target at the circle center with r > radius: contact at t0.
	c := Circular{Center: geom.V(1, 1), Radius: 0.5, Omega: 3}
	p := Static(geom.V(1, 1))
	got, found, _ := contact(c, p, 1, 2, 10, DefaultOptions(1))
	if !found || got != 2 {
		t.Errorf("got (%v, %v), want (2, true)", got, found)
	}
}

func TestCircularStaticDegenerate(t *testing.T) {
	// Zero angular velocity: static-on-circle vs static point.
	c := Circular{Center: geom.Zero, Radius: 2, Theta0: 0, Omega: 0}
	near := Static(geom.V(2.5, 0))
	if _, found, _ := contact(c, near, 1, 0, 10, DefaultOptions(1)); !found {
		t.Error("static pair within radius not detected")
	}
	far := Static(geom.V(5, 0))
	if _, found, _ := contact(c, far, 1, 0, 10, DefaultOptions(1)); found {
		t.Error("static pair beyond radius detected")
	}
}

func TestCircularStaticAgainstReference(t *testing.T) {
	cases := []struct {
		c Circular
		p geom.Vec
		r float64
	}{
		{Circular{Center: geom.V(0, 0), Radius: 2, Theta0: 0.3, Omega: 0.7}, geom.V(3, 1), 0.6},
		{Circular{Center: geom.V(1, -1), Radius: 1.5, Theta0: 2.0, Omega: -1.3}, geom.V(-1.4, -1), 0.4},
		{Circular{Center: geom.V(0, 0), Radius: 1, Theta0: math.Pi, Omega: 5}, geom.V(0, 1.95), 1},
		{Circular{T0: 2, Center: geom.V(4, 4), Radius: 3, Theta0: -1, Omega: 0.11}, geom.V(0, 4), 0.5},
	}
	for i, c := range cases {
		want, wantFound := referenceFirstContact(c.c, Static(c.p), c.r, 0, 80, 400000)
		got, found, err := contact(c.c, Static(c.p), c.r, 0, 80, DefaultOptions(c.r))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if found != wantFound {
			t.Errorf("case %d: found=%v, want %v", i, found, wantFound)
			continue
		}
		if found && math.Abs(got-want) > 1e-4 {
			t.Errorf("case %d: contact at %v, reference %v", i, got, want)
		}
	}
}

func TestConservativeArcArc(t *testing.T) {
	// Two circles side by side; movers orbit at different rates, eventually
	// their angular positions align near the gap between the circles.
	a := Circular{Center: geom.V(-2, 0), Radius: 1, Theta0: math.Pi, Omega: 1}
	b := Circular{Center: geom.V(2, 0), Radius: 1, Theta0: 0, Omega: 1.7}
	af := fn{a.At, a.SpeedBound()}
	bf := fn{b.At, b.SpeedBound()}
	r := 2.1 // gap between circles is 2; contact when both near the middle

	want, wantFound := referenceFirstContact(a, b, r, 0, 60, 600000)
	got, found, err := SafeAdvance(af, bf, r, 0, 60, Options{Slack: 1e-9, MaxIters: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if found != wantFound {
		t.Fatalf("found=%v, want %v", found, wantFound)
	}
	if found {
		if got > want+1e-6 {
			t.Errorf("conservative contact at %v is after true contact %v", got, want)
		}
		if want-got > 1e-3 {
			t.Errorf("conservative contact at %v too early vs true %v", got, want)
		}
	}
}

func TestConservativeNoContact(t *testing.T) {
	a := fn{func(t float64) geom.Vec { return geom.V(math.Cos(t), math.Sin(t)) }, 1}
	b := fn{Static(geom.V(10, 0)).At, 0}
	_, found, err := SafeAdvance(a, b, 1, 0, 100, Options{Slack: 1e-6, MaxIters: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("distant orbit reported contact")
	}
}

func TestConservativeZeroRelativeSpeed(t *testing.T) {
	a := fn{func(float64) geom.Vec { return geom.V(0, 0) }, 0}
	b := fn{func(float64) geom.Vec { return geom.V(3, 0) }, 0}
	_, found, err := SafeAdvance(a, b, 1, 0, 1e9, Options{Slack: 1e-6, MaxIters: 10})
	if err != nil || found {
		t.Errorf("static far pair: found=%v err=%v", found, err)
	}
	got, found, err := SafeAdvance(a, b, 5, 0, 1e9, Options{Slack: 1e-6, MaxIters: 10})
	if err != nil || !found || got != 0 {
		t.Errorf("static near pair: got (%v,%v,%v), want (0,true,nil)", got, found, err)
	}
}

func TestConservativeBudgetExhaustion(t *testing.T) {
	// Zero slack cannot terminate on a true approach: must surface the error.
	a := fn{func(t float64) geom.Vec { return geom.V(t, 0) }, 1}
	b := fn{Static(geom.V(10, 0)).At, 0}
	_, _, err := SafeAdvance(a, b, 1, 0, 100, Options{Slack: 0, MaxIters: 100})
	if err == nil {
		t.Error("expected iteration budget error with zero slack")
	}
}

func TestFirstContactEmptyInterval(t *testing.T) {
	a := Static(geom.V(0, 0))
	b := Static(geom.V(0, 0))
	if _, found, _ := contact(a, b, 1, 5, 4, DefaultOptions(1)); found {
		t.Error("contact in empty interval")
	}
}

// The TestFromSegment* tests pin Mover.Set's conversion rules: which
// kind of motion each segment becomes, and that the motion tracks the
// segment's own Position.

// setMover returns the Mover that Set fills for seg from absStart.
func setMover(seg segment.Seg, absStart float64) Mover {
	var m Mover
	m.Set(&seg, absStart, seg.Duration())
	return m
}

func TestFromSegmentWait(t *testing.T) {
	m := setMover(segment.NewWait(geom.V(1, 2), 5).Seg(), 7)
	if m.kind != moverLinear {
		t.Fatalf("Set(Wait) kind %d, want linear", m.kind)
	}
	if m.lin.Vel != (geom.Vec{}) || m.At(100) != geom.V(1, 2) {
		t.Errorf("wait motion wrong: %+v", m.lin)
	}
}

func TestFromSegmentLine(t *testing.T) {
	m := setMover(segment.NewLine(geom.V(0, 0), geom.V(4, 0), 2).Seg(), 10) // duration 2
	if m.kind != moverLinear {
		t.Fatalf("Set(Line) kind %d, want linear", m.kind)
	}
	if got := m.At(11); !got.ApproxEqual(geom.V(2, 0), 1e-12) {
		t.Errorf("At(11) = %v, want (2,0)", got)
	}
	if math.Abs(m.SpeedBound()-2) > 1e-12 {
		t.Errorf("SpeedBound = %v, want 2", m.SpeedBound())
	}
}

func TestFromSegmentArc(t *testing.T) {
	seg := segment.NewArc(geom.V(1, 1), 2, 0.5, 1.5, 1).Seg()
	m := setMover(seg, 3)
	if m.kind != moverCircular {
		t.Fatalf("Set(Arc) kind %d, want circular", m.kind)
	}
	for i := 0; i <= 10; i++ {
		lt := seg.Duration() * float64(i) / 10
		if got, want := m.At(3+lt), seg.Position(lt); !got.ApproxEqual(want, 1e-9) {
			t.Errorf("At(3+%v) = %v, want %v", lt, got, want)
		}
	}
}

func TestFromSegmentTransformed(t *testing.T) {
	m := geom.Affine{M: geom.FrameMatrix(0.5, 1.1, -1), T: geom.V(2, 2)}

	// Transformed line → linear.
	trLineSeg := segment.UnitLine(geom.Zero, geom.V(2, 0)).Seg()
	if mv := setMover(trLineSeg.Transformed(m, 1.5), 0); mv.kind != moverLinear {
		t.Errorf("transformed line kind %d, want linear", mv.kind)
	}
	// Transformed wait → linear (static).
	trWaitSeg := segment.NewWait(geom.V(1, 0), 2).Seg()
	if mv := setMover(trWaitSeg.Transformed(m, 1.5), 0); mv.kind != moverLinear || mv.lin.Vel != (geom.Vec{}) {
		t.Errorf("transformed wait kind %d (%+v), want static linear", mv.kind, mv.lin)
	}
	// Transformed arc → circular, positions matching.
	trArcSeg := segment.NewArc(geom.V(1, 0), 1, 0, 2, 1).Seg()
	trArc := trArcSeg.Transformed(m, 2)
	mv := setMover(trArc, 5)
	if mv.kind != moverCircular {
		t.Fatalf("transformed arc kind %d, want circular", mv.kind)
	}
	for i := 0; i <= 8; i++ {
		lt := trArc.Duration() * float64(i) / 8
		if got, want := mv.At(5+lt), trArc.Position(lt); !got.ApproxEqual(want, 1e-9) {
			t.Errorf("At(5+%v) = %v, want %v", lt, got, want)
		}
	}
}

func TestFromSegmentTransformedMotionAccuracy(t *testing.T) {
	// A transformed line's linear motion must match Position exactly at
	// interior times (affine maps preserve uniform linear motion).
	m := geom.Affine{M: geom.FrameMatrix(1.3, 2.7, +1), T: geom.V(-1, 4)}
	trSeg := segment.UnitLine(geom.V(1, 1), geom.V(4, 5)).Seg()
	tr := trSeg.Transformed(m, 0.7)
	mv := setMover(tr, 2)
	if mv.kind != moverLinear {
		t.Fatalf("transformed line kind %d, want linear", mv.kind)
	}
	for i := 0; i <= 10; i++ {
		lt := tr.Duration() * float64(i) / 10
		if got, want := mv.At(2+lt), tr.Position(lt); !got.ApproxEqual(want, 1e-9) {
			t.Errorf("At(2+%v) = %v, want %v", lt, got, want)
		}
	}
}

// circularMover returns a Mover holding the uniform circular motion c.
func circularMover(c Circular) Mover {
	return Mover{kind: moverCircular, circ: c}
}

// equalOmegaCases are arc pairs sharing one angular velocity: approaches
// from both rotation senses, a pair already in contact, a pair whose
// relative orbit never enters the contact disk, and one with a constant
// relative position (same phase, so the relative radius is zero).
var equalOmegaCases = []struct {
	name string
	a, b Circular
	r    float64
}{
	{"ccw approach", Circular{Center: geom.V(-2, 0), Radius: 1, Theta0: math.Pi, Omega: 1},
		Circular{T0: 3, Center: geom.V(2, 0), Radius: 1, Theta0: 3, Omega: 1}, 2.5},
	{"cw approach", Circular{T0: 1, Center: geom.V(0, 3), Radius: 2, Theta0: math.Pi / 2, Omega: -0.7},
		Circular{Center: geom.V(0, -1), Radius: 0.5, Theta0: math.Pi/2 + 0.7, Omega: -0.7}, 2.75},
	{"in contact", Circular{Center: geom.V(0, 0), Radius: 1, Theta0: 0, Omega: 2},
		Circular{Center: geom.V(0.1, 0), Radius: 1, Theta0: 0.05, Omega: 2}, 0.3},
	{"never", Circular{Center: geom.V(-5, 0), Radius: 1, Theta0: 0, Omega: 1},
		Circular{Center: geom.V(5, 0), Radius: 1, Theta0: 1, Omega: 1}, 1},
	{"rigid", Circular{Center: geom.V(0, 0), Radius: 1, Theta0: 0.3, Omega: 1.5},
		Circular{Center: geom.V(4, 0), Radius: 1, Theta0: 0.3, Omega: 1.5}, 3},
}

// TestEqualOmegaNeverFallsBack pins that arc pairs with equal ω are solved
// in closed form: with MaxIters 0 the safe-advance fallback would return
// ErrIterationBudget on any pair not in contact at t0, so a clean answer
// proves the pair never reached it. The answers match the sampled
// reference at the fallback's contact radius r + Slack.
func TestEqualOmegaNeverFallsBack(t *testing.T) {
	opt := Options{Slack: 1e-9, MaxIters: 0}
	const t0, t1 = 0.5, 40.0
	for _, tc := range equalOmegaCases {
		ma, mb := circularMover(tc.a), circularMover(tc.b)
		got, found, err := Contact(&ma, &mb, tc.r, t0, t1, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, wantFound := referenceFirstContact(tc.a, tc.b, tc.r+opt.Slack, t0, t1, 400000)
		if found != wantFound {
			t.Fatalf("%s: found=%v, reference %v", tc.name, found, wantFound)
		}
		if found && math.Abs(got-want) > 1e-4 {
			t.Errorf("%s: contact at %v, reference %v", tc.name, got, want)
		}
	}
}

// TestEqualOmegaDispatch pins which arc pairs still take the fallback:
// unequal ω, and any pair under a non-positive slack, where the fallback's
// ErrIterationBudget contract is kept.
func TestEqualOmegaDispatch(t *testing.T) {
	a := Circular{Center: geom.V(-2, 0), Radius: 1, Theta0: 0, Omega: 1}
	b := Circular{Center: geom.V(2, 0), Radius: 1, Theta0: 0, Omega: 1}
	bFaster := b
	bFaster.Omega = math.Nextafter(1, 2)
	for _, tc := range []struct {
		name string
		b    Circular
		opt  Options
	}{
		{"unequal omega", bFaster, Options{Slack: 1e-9, MaxIters: 0}},
		{"zero slack", b, Options{Slack: 0, MaxIters: 1_000_000}},
	} {
		ma, mb := circularMover(a), circularMover(tc.b)
		if _, _, err := Contact(&ma, &mb, 1, 0, 40, tc.opt); err != ErrIterationBudget {
			t.Errorf("%s: Contact err = %v, want ErrIterationBudget from the fallback", tc.name, err)
		}
	}
}
