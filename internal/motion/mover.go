package motion

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// moverKind tags the concrete motion a Mover holds.
type moverKind uint8

const (
	moverLinear moverKind = iota
	moverCircular
	moverSeg
)

// Mover is the value-typed motion of one trajectory segment — the
// allocation-free replacement for boxing a Motion interface value per
// segment on the simulator hot path. Set fills the Mover in place with the
// most specific motion the detector can exploit (the same conversion rules
// as FromSegment); Contact dispatches on the kinds directly, so the
// closed-form paths run without interface calls.
//
// The zero Mover is a static point at the origin. A Mover is plain data:
// copying it is safe, and one Mover per robot is reused across the whole
// walk.
type Mover struct {
	kind  moverKind
	lin   Linear
	circ  Circular
	seg   segment.Seg // fallback payload (moverSeg)
	t0    float64
	bound float64
}

// Set fills the Mover with the motion of seg starting at absolute time
// absStart:
//
//   - waits and lines (including frame-transformed ones) → linear motion,
//   - arcs under similarity maps → circular motion,
//   - everything else (e.g. modulated *and* frame-transformed segments) →
//     direct segment evaluation with the segment's speed bound.
//
// dur must equal seg.Duration(); callers on the walk hot path have already
// computed it, and passing it through avoids recomputing the closed-form
// length (for lines, a hypot) per conversion.
func (m *Mover) Set(seg *segment.Seg, absStart, dur float64) {
	if lin, ok := linearOf(seg, absStart, dur); ok {
		m.kind = moverLinear
		m.lin = lin
		return
	}
	if g, ok := segment.ArcAtDur(seg, dur); ok {
		m.kind = moverCircular
		m.circ = Circular{
			T0:     absStart,
			Center: g.Center,
			Radius: g.Radius,
			Theta0: g.StartAngle,
			Omega:  g.Omega,
		}
		return
	}
	m.kind = moverSeg
	m.seg = *seg
	m.t0 = absStart
	m.bound = seg.MaxSpeed()
}

// SetStatic fills the Mover with a point fixed at p.
func (m *Mover) SetStatic(p geom.Vec) {
	m.kind = moverLinear
	m.lin = Static(p)
}

// At returns the position at absolute time t.
func (m *Mover) At(t float64) geom.Vec {
	switch m.kind {
	case moverLinear:
		return m.lin.At(t)
	case moverCircular:
		return m.circ.At(t)
	default:
		return m.seg.Position(t - m.t0)
	}
}

// SpeedBound returns an upper bound on the instantaneous speed.
func (m *Mover) SpeedBound() float64 {
	switch m.kind {
	case moverLinear:
		return m.lin.SpeedBound()
	case moverCircular:
		return m.circ.SpeedBound()
	default:
		return m.bound
	}
}

// Contact returns the earliest t in [t0, t1] at which |a(t) − b(t)| ≤ r.
// It is FirstContact over value-typed Movers: the dispatch, the closed
// forms — including the equal-ω arc×arc reduction to a circle against the
// origin (equalOmega) — and the conservative fallback perform the same
// arithmetic, without interface boxing or dynamic calls.
func Contact(a, b *Mover, r, t0, t1 float64, opt Options) (t float64, found bool, err error) {
	if t1 < t0 {
		return 0, false, nil
	}
	if a.kind == moverLinear {
		if b.kind == moverLinear {
			t, found = linearLinear(a.lin, b.lin, r, t0, t1)
			return t, found, nil
		}
		if b.kind == moverCircular && a.lin.Vel == (geom.Vec{}) {
			t, found = circularStatic(b.circ, a.lin.P0, r, t0, t1)
			return t, found, nil
		}
	} else if a.kind == moverCircular {
		if b.kind == moverLinear && b.lin.Vel == (geom.Vec{}) {
			t, found = circularStatic(a.circ, b.lin.P0, r, t0, t1)
			return t, found, nil
		}
		if b.kind == moverCircular {
			if t, found, ok := equalOmega(a.circ, b.circ, r, t0, t1, opt); ok {
				return t, found, nil
			}
		}
	}
	return conservative(a, b, r, t0, t1, opt)
}
