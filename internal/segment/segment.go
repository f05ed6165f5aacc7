// Package segment defines the exact motion primitives out of which all robot
// trajectories are composed: straight-line moves, circular arcs, and waits.
//
// The central type is Seg, a value-typed union of the three payload kinds
// plus an optional speed-modulation dilation; Wait, Line, and Arc remain as
// constructors and exact payload arithmetic. A robot's frame is not part of
// a segment: Frame places segments under it. A segment describes motion over
// a *local* time interval [0, Duration()]. Positions are exact closed forms
// — no spatial discretisation — so the durations of the paper's algorithms
// match their closed-form analysis to float64 round-off, which the
// phase-structure lemmas of Section 4 rely on.
package segment

import (
	"math"

	"repro/internal/geom"
)

// Line is straight-line motion from From to To at constant Speed.
type Line struct {
	From, To geom.Vec
	Speed    float64 // must be > 0 unless From == To
}

// NewLine returns a Line moving between the two points at the given speed.
// It panics if speed is not positive while the endpoints differ, since that
// would make the duration undefined; this is a programming error, not a
// runtime condition.
func NewLine(from, to geom.Vec, speed float64) Line {
	checkLine(from, to, speed)
	return Line{From: from, To: to, Speed: speed}
}

// checkLine panics on the arguments NewLine rejects.
func checkLine(from, to geom.Vec, speed float64) {
	if speed <= 0 && from != to {
		panicf("segment: NewLine with non-positive speed %v", speed)
	}
}

// UnitLine returns a Line at unit speed, the reference robot's speed.
func UnitLine(from, to geom.Vec) Line { return NewLine(from, to, 1) }

// Duration returns the time needed to traverse the segment.
func (l Line) Duration() float64 {
	if l.From == l.To {
		return 0
	}
	return l.From.Dist(l.To) / l.Speed
}

func (l Line) Position(t float64) geom.Vec {
	d := l.Duration()
	if d == 0 {
		return l.From
	}
	switch {
	case t <= 0:
		return l.From
	case t >= d:
		return l.To
	}
	return l.From.Lerp(l.To, t/d)
}

func (l Line) Start() geom.Vec { return l.From }

func (l Line) End() geom.Vec { return l.To }

func (l Line) MaxSpeed() float64 {
	if l.From == l.To {
		return 0
	}
	return l.Speed
}

func (l Line) PathLength() float64 { return l.From.Dist(l.To) }

// Wait is zero motion: the robot remains at At for Time units.
type Wait struct {
	At   geom.Vec
	Time float64 // must be >= 0
}

// NewWait returns a Wait of the given non-negative duration. It panics on a
// negative duration (programming error).
func NewWait(at geom.Vec, duration float64) Wait {
	checkWait(duration)
	return Wait{At: at, Time: duration}
}

// checkWait panics on the durations NewWait rejects.
func checkWait(duration float64) {
	if duration < 0 {
		panicf("segment: NewWait with negative duration %v", duration)
	}
}

// Duration returns the time needed to traverse the segment.
func (w Wait) Duration() float64 { return w.Time }

func (w Wait) Position(float64) geom.Vec { return w.At }

func (w Wait) Start() geom.Vec { return w.At }

func (w Wait) End() geom.Vec { return w.At }

func (w Wait) MaxSpeed() float64 { return 0 }

func (w Wait) PathLength() float64 { return 0 }

// Arc is motion along a circular arc at constant Speed. The position at
// angle θ is Center + Radius·(cos θ, sin θ); the robot moves from StartAngle
// through a signed Sweep (positive = counter-clockwise).
type Arc struct {
	Center     geom.Vec
	Radius     float64 // must be > 0 unless Sweep == 0
	StartAngle float64
	Sweep      float64 // signed; positive is CCW
	Speed      float64 // must be > 0 unless the arc is degenerate
}

// NewArc returns an Arc. It panics if radius is negative, or if speed is not
// positive while the arc has positive length (programming errors).
func NewArc(center geom.Vec, radius, startAngle, sweep, speed float64) Arc {
	checkArc(radius, sweep, speed)
	return Arc{Center: center, Radius: radius, StartAngle: startAngle, Sweep: sweep, Speed: speed}
}

// checkArc panics on the arguments NewArc rejects.
func checkArc(radius, sweep, speed float64) {
	if radius < 0 {
		panicf("segment: NewArc with negative radius %v", radius)
	}
	if speed <= 0 && radius*math.Abs(sweep) > 0 {
		panicf("segment: NewArc with non-positive speed %v", speed)
	}
}

// FullCircle returns a unit-speed counter-clockwise full traversal of the
// circle with the given center and radius, starting at angle startAngle.
// This is the primitive used by the paper's SearchCircle.
func FullCircle(center geom.Vec, radius, startAngle float64) Arc {
	return NewArc(center, radius, startAngle, 2*math.Pi, 1)
}

// Duration returns the time needed to traverse the segment.
func (a Arc) Duration() float64 {
	return a.PathLength() / a.speedOr1()
}

func (a Arc) speedOr1() float64 {
	if a.Speed <= 0 {
		return 1 // degenerate arc; duration is 0 either way
	}
	return a.Speed
}

// AngleAt returns the polar angle (about Center) at local time t.
func (a Arc) AngleAt(t float64) float64 {
	d := a.Duration()
	if d == 0 {
		return a.StartAngle
	}
	switch {
	case t <= 0:
		return a.StartAngle
	case t >= d:
		return a.StartAngle + a.Sweep
	}
	return a.StartAngle + a.Sweep*(t/d)
}

// AngularVelocity returns dθ/dt (signed).
func (a Arc) AngularVelocity() float64 {
	d := a.Duration()
	if d == 0 {
		return 0
	}
	return a.Sweep / d
}

func (a Arc) Position(t float64) geom.Vec {
	return a.Center.Add(geom.Polar(a.Radius, a.AngleAt(t)))
}

func (a Arc) Start() geom.Vec { return a.Position(0) }

func (a Arc) End() geom.Vec { return a.Position(a.Duration()) }

func (a Arc) MaxSpeed() float64 {
	if a.PathLength() == 0 {
		return 0
	}
	return a.Speed
}

func (a Arc) PathLength() float64 { return a.Radius * math.Abs(a.Sweep) }
