package segment

import (
	"repro/internal/geom"
)

// This file recovers exact circular geometry from transformed segments. A
// Seg models the reference-frame shift of the paper: a robot with attributes
// (v, τ, φ, χ) executing a local-frame segment S produces the global-frame
// motion
//
//	t ↦ Map(S(t / τ))
//
// with Map = x ↦ (vτ)·Rot(φ)·Diag(1,χ)·x + origin. Under such a similarity
// map the image of a circular arc is again a circular arc, which the contact
// detector exploits through ArcAt.

// ArcGeometry describes the exact circular motion of a (possibly
// transformed) arc in outer coordinates:
// position(t) = Center + Radius·e^{i·(StartAngle + Omega·t)} for outer-local
// time t in [0, Duration].
type ArcGeometry struct {
	Center     geom.Vec
	Radius     float64
	StartAngle float64
	Omega      float64 // signed angular velocity in outer time
	Duration   float64
}

// ArcAt returns the outer-frame circular geometry of the segment if it is an
// arc whose frame map (if any) is a similarity (uniform scale, possibly with
// reflection). ok is false otherwise — in particular for arcs that carry
// both a speed modulation and a frame transform, which the detector treats
// conservatively (matching the former doubly-wrapped representation, which
// the one-level arc unwrapping never recognised).
func ArcAt(s *Seg) (ArcGeometry, bool) {
	return ArcAtDur(s, s.Duration())
}

// ArcAtDur is ArcAt with the segment's duration supplied by the caller
// (dur must equal s.Duration()); the walk hot path has already computed it.
func ArcAtDur(s *Seg, dur float64) (ArcGeometry, bool) {
	if s.kind != KindArc {
		return ArcGeometry{}, false
	}
	if s.framed && s.mod != 0 {
		return ArcGeometry{}, false
	}
	arc := s.arc()
	if !s.framed && s.mod == 0 {
		return ArcGeometry{
			Center:     arc.Center,
			Radius:     arc.Radius,
			StartAngle: arc.StartAngle,
			Omega:      arc.AngularVelocity(),
			Duration:   dur,
		}, true
	}
	// One transform present: the frame map, or a pure time dilation (which
	// acts as the identity map).
	m, ts := s.m, s.tau
	if !s.framed {
		m, ts = geom.IdentityAffine, s.mod
	}
	k := newArcFrame(m.M)
	if !k.similar {
		return ArcGeometry{}, false
	}
	return k.place(arc, m, ts, dur, s.framed), true
}

// arcFrame holds the constants of placing circular arcs under one affine
// map: whether its linear part is a similarity (columns orthogonal with
// equal norms), its scale and its handedness (the sign of its determinant).
// ArcAtDur computes them per segment; Frame caches them per frame.
type arcFrame struct {
	similar    bool
	scale      float64
	handedness float64
}

// newArcFrame runs the similarity test on the linear part m.
func newArcFrame(m geom.Mat) arcFrame {
	c1 := geom.V(m.A, m.C)
	c2 := geom.V(m.B, m.D)
	n1, n2 := c1.Norm(), c2.Norm()
	const eps = 1e-12
	avg := (n1 + n2) / 2
	if avg == 0 {
		return arcFrame{}
	}
	if diff := n1 - n2; diff > eps*avg || diff < -eps*avg {
		return arcFrame{}
	}
	if dot := c1.Dot(c2); dot > eps*avg*avg || dot < -eps*avg*avg {
		return arcFrame{}
	}
	k := arcFrame{similar: true, scale: n1, handedness: 1}
	if m.Det() < 0 {
		k.handedness = -1
	}
	return k
}

// place returns the outer-frame geometry of arc under the similarity m,
// whose constants are k, and the time dilation ts, over duration dur.
// mapStart says whether m applies to the arc's start point: it does under a
// frame; under a pure dilation m is the identity and the start point is
// taken as it is, exactly as Seg.Position(0) evaluates it.
func (k arcFrame) place(arc Arc, m geom.Affine, ts, dur float64, mapStart bool) ArcGeometry {
	// Under x ↦ M x + b with M = s·Rot(α)·Diag(1, ±1), the circle
	// C + ρ·e^{iθ} maps to (M C + b) + sρ·e^{i(±θ+α)}: again a circular arc
	// with radius s·ρ, traversed at angular velocity ±ω/τ.
	center := m.Apply(arc.Center)
	radius := arc.Radius * k.scale
	if radius == 0 || dur == 0 {
		return ArcGeometry{Center: center, Radius: radius, StartAngle: 0, Omega: 0, Duration: dur}
	}
	// Recover the start angle from the exact image of the start point.
	start := arc.Position(0 / ts)
	if mapStart {
		start = m.Apply(start)
	}
	return ArcGeometry{
		Center:     center,
		Radius:     radius,
		StartAngle: start.Sub(center).Angle(),
		Omega:      k.handedness * arc.AngularVelocity() / ts,
		Duration:   dur,
	}
}

// Position returns the point on the arc at local time t (clamped).
func (g ArcGeometry) Position(t float64) geom.Vec {
	if t < 0 {
		t = 0
	} else if t > g.Duration {
		t = g.Duration
	}
	return g.Center.Add(geom.Polar(g.Radius, g.StartAngle+g.Omega*t))
}
