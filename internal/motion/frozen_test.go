package motion

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// This file is a frozen, test-only copy of the framed segment arithmetic
// that segment.Frame and Mover.SetFramed replaced. A segment used to carry
// its robot's frame in its payload: an affine map, a clock dilation and the
// map's cached operator norm, with a speed-modulation dilation outside the
// frame (the former Transformed(identity, mod){Transformed(frame, τ){S}}
// nesting). frozenSeg repeats that representation's arithmetic operation
// for operation, and frozenSet repeats Mover.Set's dispatch over it.
// FuzzSetFramedMatchesSet pins the production placement to it bit for bit.
// Do not edit it to follow the production code.

// frozenSeg is one payload (wait, line or arc) with an optional frame and an
// optional time dilation.
type frozenSeg struct {
	kind   segment.Kind
	wait   segment.Wait
	line   segment.Line
	arc    segment.Arc
	framed bool
	mod    float64 // 0: none
	m      geom.Affine
	tau    float64
	opNorm float64
}

// frozenOf returns the frozen form of the payload p with dilation mod
// (0: none), under the frame (m, tau) when framed.
func frozenOf(p any, mod float64, framed bool, m geom.Affine, tau float64) frozenSeg {
	s := frozenSeg{mod: mod, framed: framed}
	switch p := p.(type) {
	case segment.Wait:
		s.kind, s.wait = segment.KindWait, p
	case segment.Line:
		s.kind, s.line = segment.KindLine, p
	case segment.Arc:
		s.kind, s.arc = segment.KindArc, p
	}
	if framed {
		s.m, s.tau, s.opNorm = m, tau, m.M.OperatorNorm()
	}
	return s
}

func (s *frozenSeg) innerDuration() float64 {
	switch s.kind {
	case segment.KindWait:
		return s.wait.Time
	case segment.KindLine:
		return s.line.Duration()
	default:
		return s.arc.Duration()
	}
}

func (s *frozenSeg) Duration() float64 {
	d := s.innerDuration()
	if s.framed {
		d *= s.tau
	}
	if s.mod != 0 {
		d *= s.mod
	}
	return d
}

func (s *frozenSeg) Position(t float64) geom.Vec {
	if s.mod != 0 {
		t /= s.mod
	}
	if s.framed {
		t /= s.tau
	}
	var p geom.Vec
	switch s.kind {
	case segment.KindWait:
		p = s.wait.At
	case segment.KindLine:
		p = s.line.Position(t)
	default:
		p = s.arc.Position(t)
	}
	if s.framed {
		p = s.m.Apply(p)
	}
	return p
}

func (s *frozenSeg) innerStart() geom.Vec {
	switch s.kind {
	case segment.KindWait:
		return s.wait.At
	case segment.KindLine:
		return s.line.From
	default:
		return s.arc.Start()
	}
}

func (s *frozenSeg) innerEnd() geom.Vec {
	switch s.kind {
	case segment.KindWait:
		return s.wait.At
	case segment.KindLine:
		return s.line.To
	default:
		return s.arc.End()
	}
}

func (s *frozenSeg) Start() geom.Vec {
	p := s.innerStart()
	if s.framed {
		p = s.m.Apply(p)
	}
	return p
}

func (s *frozenSeg) End() geom.Vec {
	p := s.innerEnd()
	if s.framed {
		p = s.m.Apply(p)
	}
	return p
}

func (s *frozenSeg) MaxSpeed() float64 {
	var v float64
	switch s.kind {
	case segment.KindWait:
		v = 0
	case segment.KindLine:
		v = s.line.MaxSpeed()
	default:
		v = s.arc.MaxSpeed()
	}
	if s.framed {
		v = v * s.opNorm / s.tau
	}
	if s.mod != 0 {
		v /= s.mod
	}
	return v
}

func (s *frozenSeg) DurationAndLength() (dur, length float64) {
	switch s.kind {
	case segment.KindWait:
		dur, length = s.wait.Time, 0
	case segment.KindLine:
		l := s.line
		length = l.From.Dist(l.To)
		if l.From == l.To {
			dur = 0
		} else {
			dur = length / l.Speed
		}
	default:
		a := s.arc
		length = a.PathLength()
		speed := a.Speed
		if speed <= 0 {
			speed = 1
		}
		dur = length / speed
	}
	if s.framed {
		dur *= s.tau
		length *= s.opNorm
	}
	if s.mod != 0 {
		dur *= s.mod
	}
	return dur, length
}

// ArcAtDur is the frozen segment.ArcAtDur: exact circular geometry for an
// arc under at most one of the two transforms, the frame map only if it is
// a similarity.
func (s *frozenSeg) ArcAtDur(dur float64) (segment.ArcGeometry, bool) {
	if s.kind != segment.KindArc {
		return segment.ArcGeometry{}, false
	}
	if s.framed && s.mod != 0 {
		return segment.ArcGeometry{}, false
	}
	arc := s.arc
	if !s.framed && s.mod == 0 {
		return segment.ArcGeometry{
			Center:     arc.Center,
			Radius:     arc.Radius,
			StartAngle: arc.StartAngle,
			Omega:      arc.AngularVelocity(),
			Duration:   dur,
		}, true
	}
	m, ts := s.m, s.tau
	if !s.framed {
		m, ts = geom.IdentityAffine, s.mod
	}
	similar, scale, handedness := frozenSimilarity(m.M)
	if !similar {
		return segment.ArcGeometry{}, false
	}
	center := m.Apply(arc.Center)
	radius := arc.Radius * scale
	if radius == 0 || dur == 0 {
		return segment.ArcGeometry{Center: center, Radius: radius, StartAngle: 0, Omega: 0, Duration: dur}, true
	}
	start := arc.Position(0 / ts)
	if s.framed {
		start = m.Apply(start)
	}
	return segment.ArcGeometry{
		Center:     center,
		Radius:     radius,
		StartAngle: start.Sub(center).Angle(),
		Omega:      handedness * arc.AngularVelocity() / ts,
		Duration:   dur,
	}, true
}

// frozenSimilarity is the similarity test on the linear part m: columns
// orthogonal with equal norms, to a relative 1e-12.
func frozenSimilarity(m geom.Mat) (similar bool, scale, handedness float64) {
	c1 := geom.V(m.A, m.C)
	c2 := geom.V(m.B, m.D)
	n1, n2 := c1.Norm(), c2.Norm()
	const eps = 1e-12
	avg := (n1 + n2) / 2
	if avg == 0 {
		return false, 0, 0
	}
	if diff := n1 - n2; diff > eps*avg || diff < -eps*avg {
		return false, 0, 0
	}
	if dot := c1.Dot(c2); dot > eps*avg*avg || dot < -eps*avg*avg {
		return false, 0, 0
	}
	handedness = 1
	if m.Det() < 0 {
		handedness = -1
	}
	return true, n1, handedness
}

// frozenMover is the motion the frozen Mover.Set built: linear, circular,
// or direct evaluation of the segment (seg) with its speed bound.
type frozenMover struct {
	kind  moverKind
	lin   Linear
	circ  Circular
	seg   frozenSeg
	t0    float64
	bound float64
}

// frozenSet is the frozen Mover.Set: waits and lines (also framed or
// dilated, but not both) are linear, arcs with circular geometry are
// circular, and everything else is evaluated directly.
func frozenSet(s *frozenSeg, absStart, dur float64) frozenMover {
	switch s.kind {
	case segment.KindWait, segment.KindLine:
		if !(s.framed && s.mod != 0) {
			if !s.framed && s.mod == 0 && s.kind == segment.KindWait {
				return frozenMover{kind: moverLinear, lin: Linear{P0: s.wait.At}}
			}
			start, end := s.Start(), s.End()
			lin := Linear{T0: absStart, P0: start}
			if dur != 0 && start != end {
				lin.Vel = end.Sub(start).Scale(1 / dur)
			}
			return frozenMover{kind: moverLinear, lin: lin}
		}
	}
	if g, ok := s.ArcAtDur(dur); ok {
		return frozenMover{kind: moverCircular, circ: Circular{
			T0: absStart, Center: g.Center, Radius: g.Radius, Theta0: g.StartAngle, Omega: g.Omega,
		}}
	}
	return frozenMover{kind: moverSeg, seg: *s, t0: absStart, bound: s.MaxSpeed()}
}

func (m *frozenMover) At(t float64) geom.Vec {
	switch m.kind {
	case moverLinear:
		return m.lin.At(t)
	case moverCircular:
		return m.circ.At(t)
	default:
		return m.seg.Position(t - m.t0)
	}
}

func (m *frozenMover) SpeedBound() float64 {
	switch m.kind {
	case moverLinear:
		return m.lin.SpeedBound()
	case moverCircular:
		return m.circ.SpeedBound()
	default:
		return m.bound
	}
}
