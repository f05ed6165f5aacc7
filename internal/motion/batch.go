package motion

import "repro/internal/geom"

// SweepKind tags which contact algorithm a StaticSweep dispatches to — the
// same classification Contact performs per call, exported so a batch kernel
// can hoist the switch out of its per-lane loop.
type SweepKind uint8

// StaticSweep dispatch classes for one mover against static points.
const (
	// SweepLinear: the mover is linear; contact vs. a static point is the
	// linearHit quadratic.
	SweepLinear SweepKind = iota
	// SweepCircular: the mover is circular; contact vs. a static point is
	// the arcHit arccos.
	SweepCircular
)

// StaticSweep evaluates first contact between one mover and many static
// points — the inner kernel of the search walk, where a whole lane vector
// of targets shares the segment the mover currently holds. Reset hoists
// what depends only on (mover, t0): the kind switch, the mover's position
// at t0, its velocity and squared speed, its angle at t0.
//
// The per-lane methods call the closed forms Contact calls, linearHit and
// arcHit, on the same operands, so for every lane LinearAt and CircularAt
// return exactly what Contact(mover, static(target), r, t0, t1, opt)
// returns.
type StaticSweep struct {
	kind SweepKind
	t0   float64
	m    *Mover

	// Linear: the mover's position at t0, its velocity and |velocity|².
	a0, w geom.Vec
	qa    float64

	// Circular: the mover's angle at t0, θ₀ + ω·(t0−T0).
	theta float64
}

// Reset captures the mover's current motion for contact queries against
// static points over the interval starting at absolute time t0. m must
// have been filled by Set, which places every raw segment, plain or
// modulated, as linear or circular motion; a sweep has no kind for any
// other mover. The mover must not be mutated while the sweep is in use.
func (s *StaticSweep) Reset(m *Mover, t0 float64) {
	s.t0, s.m = t0, m
	switch m.kind {
	case moverLinear:
		s.kind = SweepLinear
		s.a0 = m.lin.At(t0)
		// Contact's relative velocity is m.lin.Vel − 0, which is m.lin.Vel
		// bit for bit.
		s.w = m.lin.Vel
		s.qa = s.w.Norm2()
	case moverCircular:
		s.kind = SweepCircular
		s.theta = m.circ.angle(t0)
	}
}

// Kind returns the dispatch class, letting callers switch once per segment
// instead of once per lane.
func (s *StaticSweep) Kind() SweepKind { return s.kind }

// LinearAt returns first contact with the static point b0 within [t0, t1].
// b0 must be the point as a Linear motion evaluates it — Static(p).At(t),
// i.e. {p.X+0, p.Y+0} — because Contact subtracts b.At(t0), not p.
// Only valid for SweepLinear.
func (s *StaticSweep) LinearAt(b0 geom.Vec, r, t1 float64) (float64, bool) {
	return linearHit(s.a0, b0, s.w, s.qa, r, s.t0, t1)
}

// CircularAt returns first contact with the static point p within [t0, t1].
// p is the raw point (Contact hands arcHit the static mover's P0
// verbatim). Only valid for SweepCircular.
func (s *StaticSweep) CircularAt(p geom.Vec, r, t1 float64) (float64, bool) {
	c := &s.m.circ
	return arcHit(c.Center, c.Radius, c.Omega, s.theta, p, r, s.t0, t1)
}
