package motion

import (
	"math"

	"repro/internal/geom"
)

// SweepKind tags which contact algorithm a StaticSweep dispatches to — the
// same classification Contact performs per call, exported so a batch kernel
// can hoist the switch out of its per-lane loop.
type SweepKind uint8

// StaticSweep dispatch classes for one mover against static points.
const (
	// SweepLinear: the mover is linear; contact vs. a static point is the
	// linearLinear quadratic.
	SweepLinear SweepKind = iota
	// SweepCircular: the mover is circular; contact vs. a static point is
	// the circularStatic arccos.
	SweepCircular
	// SweepFallback: everything else; contact runs the conservative
	// safe-advance iteration per lane.
	SweepFallback
)

// StaticSweep evaluates first contact between one mover and many static
// points — the inner kernel of the batch simulators, where a whole lane
// vector of targets shares the segment the mover currently holds. The
// constructor hoists everything that depends only on (mover, t0) — the kind
// switch, the mover's position at t0, the relative velocity and its squared
// norm, the circular-geometry constants — so the per-lane methods are tight
// loops of a few float64 operations over the lane vectors.
//
// Bit-exactness contract: for every lane, LinearAt/CircularAt/FallbackAt
// return exactly what Contact(mover, static(target), r, t0, t1, opt) returns.
// The hoisted subexpressions are the same associations Go's parser gives the
// scalar formulas ((4·qa)·c, (2·R)·d, θ₀+ω·(t0−T0) computed before −β), so
// no float64 result changes.
type StaticSweep struct {
	kind SweepKind
	t0   float64
	m    *Mover

	// Linear: contact vs. static p solves |a0−p + w·s| = r for s = t−t0.
	a0  geom.Vec // mover position at t0
	w   geom.Vec // relative velocity (mover minus static zero)
	qa  float64  // |w|²
	qa4 float64  // 4·qa, the scalar quadratic's (4·qa)·c association

	// Circular: constants of the arccos closed form.
	degenerate bool     // zero radius or zero angular velocity
	at0        geom.Vec // mover position at t0 (degenerate distance check)
	center     geom.Vec
	radius2    float64 // R², hoisted from (r²−d²−R²)
	twoRadius  float64 // 2R, hoisted from (2R)·d
	omega      float64
	thetaT0    float64 // θ₀ + ω·(t0−T0), the lane-independent part of ψ₀
}

// StaticSweep captures the mover's current motion for contact queries
// against static points over the interval starting at absolute time t0.
// The mover must not be mutated while the sweep is in use.
func (m *Mover) StaticSweep(t0 float64) StaticSweep {
	s := StaticSweep{t0: t0, m: m}
	switch m.kind {
	case moverLinear:
		s.kind = SweepLinear
		s.a0 = m.lin.At(t0)
		s.w = m.lin.Vel.Sub(geom.Vec{}) // bitwise m.lin.Vel: x−0 ≡ x
		s.qa = s.w.Norm2()
		s.qa4 = 4 * s.qa
	case moverCircular:
		c := m.circ
		s.kind = SweepCircular
		s.degenerate = c.Radius == 0 || c.Omega == 0
		s.at0 = c.At(t0)
		s.center = c.Center
		s.radius2 = c.Radius * c.Radius
		s.twoRadius = 2 * c.Radius
		s.omega = c.Omega
		s.thetaT0 = c.Theta0 + c.Omega*(t0-c.T0)
	default:
		s.kind = SweepFallback
	}
	return s
}

// Kind returns the dispatch class, letting callers switch once per segment
// instead of once per lane.
func (s *StaticSweep) Kind() SweepKind { return s.kind }

// LinearAt returns first contact with the static point b0 within [t0, t1].
// b0 must be the point as a Linear motion evaluates it — Static(p).At(t),
// i.e. {p.X+0, p.Y+0} — because the scalar path subtracts b.At(t0), not p.
// Only valid for SweepLinear.
func (s *StaticSweep) LinearAt(b0 geom.Vec, r, t1 float64) (float64, bool) {
	if t1 < s.t0 {
		return 0, false
	}
	p0 := s.a0.Sub(b0)
	c := p0.Norm2() - r*r
	if c <= 0 {
		return s.t0, true // already in contact
	}
	if s.qa == 0 {
		return 0, false // constant positive gap
	}
	qb := 2 * p0.Dot(s.w)
	disc := qb*qb - s.qa4*c
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	var s1, s2 float64
	if qb >= 0 {
		q := -(qb + sq) / 2
		s1, s2 = q/s.qa, c/q
	} else {
		q := -(qb - sq) / 2
		s1, s2 = c/q, q/s.qa
	}
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	switch {
	case s1 >= 0 && s.t0+s1 <= t1:
		return s.t0 + s1, true
	case s1 < 0 && s2 >= 0:
		return s.t0, true // round-off: started inside the disk
	default:
		return 0, false
	}
}

// CircularAt returns first contact with the static point p within [t0, t1].
// p is the raw point (the scalar path hands circularStatic the static
// mover's P0 verbatim). Only valid for SweepCircular.
func (s *StaticSweep) CircularAt(p geom.Vec, r, t1 float64) (float64, bool) {
	if t1 < s.t0 {
		return 0, false
	}
	cp := s.center.Sub(p)
	d := cp.Norm()
	if s.degenerate || d == 0 {
		if s.at0.Dist(p) <= r {
			return s.t0, true
		}
		return 0, false
	}
	rhs := (r*r - d*d - s.radius2) / (s.twoRadius * d)
	if rhs >= 1 {
		return s.t0, true
	}
	if rhs < -1 {
		return 0, false
	}
	alpha := math.Acos(rhs)
	beta := cp.Angle()
	psi0 := normAngle(s.thetaT0 - beta)
	if psi0 >= alpha && psi0 <= 2*math.Pi-alpha {
		return s.t0, true
	}
	var dt float64
	if s.omega > 0 {
		dt = forwardDelta(psi0, alpha) / s.omega
	} else {
		dt = forwardDelta(2*math.Pi-alpha, psi0) / -s.omega
	}
	if s.t0+dt <= t1 {
		return s.t0 + dt, true
	}
	return 0, false
}

// FallbackAt runs SafeAdvance against the static point p within [t0, t1] —
// the identical generic instantiation the scalar Contact path uses, so
// results (and iteration budgets) match bit for bit.
func (s *StaticSweep) FallbackAt(p geom.Vec, r, t1 float64, opt Options) (float64, bool, error) {
	if t1 < s.t0 {
		return 0, false, nil
	}
	var st Mover
	st.SetStatic(p)
	return SafeAdvance(s.m, &st, r, s.t0, t1, opt)
}
