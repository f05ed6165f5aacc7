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

// Mover is the value-typed motion of one trajectory segment. Set (or
// SetFramed, for a segment placed under a robot's frame) fills the
// Mover in place with the most specific motion the detector can exploit;
// Contact dispatches on the kinds directly, so the closed-form paths run
// without interface boxing or dynamic calls.
//
// The zero Mover is a static point at the origin. A Mover is plain data:
// copying it is safe, and one Mover per robot is reused across the whole
// walk.
type Mover struct {
	kind  moverKind
	lin   Linear
	circ  Circular
	seg   segment.Seg    // fallback payload (moverSeg), raw
	frame *segment.Frame // the frame seg is placed under (moverSeg)
	t0    float64
	bound float64
}

// Set fills the Mover with the motion of the raw segment seg starting at
// absolute time absStart: waits and lines become linear motion, arcs
// circular motion (a modulated arc turns at its dilated rate).
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
	g, _ := segment.ArcAtDur(seg, dur) // every raw arc has circular geometry
	m.setCircular(g, absStart)
}

// SetFramed fills the Mover with the motion of the raw segment raw placed
// under the frame f, starting at absolute time absStart:
//
//   - waits and lines → linear motion between their endpoints' images,
//   - arcs under similarity maps → circular motion, from f's cached
//     similarity constants (segment.Frame.ArcAtDur),
//   - everything else (an arc under a non-similarity map, or a modulated
//     segment) → direct evaluation of the placed segment with its speed
//     bound, for the conservative safe advance. The Mover keeps f, so f
//     must not change while the Mover is in use.
//
// dur must equal the duration under the frame, f.DurationAndLength; walks
// over a local program place it once per segment, with f.Duration.
func (m *Mover) SetFramed(raw *segment.Seg, f *segment.Frame, absStart, dur float64) {
	if !raw.Modulated() {
		switch raw.Kind() {
		case segment.KindWait, segment.KindLine:
			start, end := f.Endpoints(raw)
			m.kind = moverLinear
			m.lin = linearFromEndpoints(start, end, dur, absStart)
			return
		case segment.KindArc:
			if g, ok := f.ArcAtDur(raw, dur); ok {
				m.setCircular(g, absStart)
				return
			}
		}
	}
	m.kind = moverSeg
	m.seg, m.frame = *raw, f
	m.t0 = absStart
	m.bound = f.MaxSpeed(raw)
}

// setCircular fills the Mover with the circular motion g from absStart.
func (m *Mover) setCircular(g segment.ArcGeometry, absStart float64) {
	m.kind = moverCircular
	m.circ = Circular{
		T0:     absStart,
		Center: g.Center,
		Radius: g.Radius,
		Theta0: g.StartAngle,
		Omega:  g.Omega,
	}
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
		return m.frame.Position(&m.seg, t-m.t0)
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

// Contact returns the earliest t in [t0, t1] at which |a(t) − b(t)| ≤ r;
// found is false when no such time exists in the interval. Linear pairs,
// an arc against a static point, and arcs sharing one ω (equalOmega, at
// radius r + opt.Slack) are solved in closed form; everything else runs
// SafeAdvance.
func Contact(a, b *Mover, r, t0, t1 float64, opt Options) (t float64, found bool, err error) {
	if t1 < t0 {
		return 0, false, nil
	}
	if a.kind == moverLinear {
		if b.kind == moverLinear {
			w := a.lin.Vel.Sub(b.lin.Vel)
			t, found = linearHit(a.lin.At(t0), b.lin.At(t0), w, w.Norm2(), r, t0, t1)
			return t, found, nil
		}
		if b.kind == moverCircular && a.lin.Vel == (geom.Vec{}) {
			c := &b.circ
			t, found = arcHit(c.Center, c.Radius, c.Omega, c.angle(t0), a.lin.P0, r, t0, t1)
			return t, found, nil
		}
	} else if a.kind == moverCircular {
		if b.kind == moverLinear && b.lin.Vel == (geom.Vec{}) {
			c := &a.circ
			t, found = arcHit(c.Center, c.Radius, c.Omega, c.angle(t0), b.lin.P0, r, t0, t1)
			return t, found, nil
		}
		if b.kind == moverCircular {
			if t, found, ok := equalOmega(a.circ, b.circ, r, t0, t1, opt); ok {
				return t, found, nil
			}
		}
	}
	return SafeAdvance(a, b, r, t0, t1, opt)
}

// linearOf recognises the raw segments whose motion is exactly linear in
// time: waits and lines, modulated or not. dur must equal seg.Duration()
// (precomputed by the caller).
func linearOf(seg *segment.Seg, absStart, dur float64) (Linear, bool) {
	switch seg.Kind() {
	case segment.KindWait, segment.KindLine:
		if w, ok := seg.AsWait(); ok && !seg.Modulated() {
			return Static(w.At), true
		}
		return linearFromEndpoints(seg.Start(), seg.End(), dur, absStart), true
	}
	return Linear{}, false
}

func linearFromEndpoints(start, end geom.Vec, dur, absStart float64) Linear {
	if dur == 0 || start == end {
		return Linear{T0: absStart, P0: start}
	}
	return Linear{T0: absStart, P0: start, Vel: end.Sub(start).Scale(1 / dur)}
}
