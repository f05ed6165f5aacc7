package segment

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Frame is a robot's frame: the affine map x ↦ M·x + T and clock dilation τ
// of the paper's local→global shift, fixed by the robot's attributes for a
// whole walk. Segments stay in their program's own frame; a walk places
// each one under the robot's Frame (motion.Mover.SetFramed for motions,
// DurationAndLength or Duration and Norm for durations and lengths,
// Position and Endpoints for points), so no framed segment is ever built.
// The per-map constants are computed once, at construction:
//
//   - ‖M‖₂, the factor lengths and speed bounds scale by;
//   - the arc-placement constants of ArcAtDur: whether M is a similarity,
//     its scale and its handedness.
//
// A segment's speed-modulation dilation stays outside the frame: under a
// frame a segment of payload duration d lasts (d·τ)·mod, its position at
// time t is M·p(t/mod/τ) + T for the payload position p, and its speed
// bound is (v·‖M‖/τ)/mod. So the fault and modulation combinators of
// package trajectory, applied to a robot's program, act in the program's
// own clock.
type Frame struct {
	m      geom.Affine
	tau    float64
	opNorm float64
	arc    arcFrame
}

// NewFrame builds a Frame for the affine map m and time dilation timeScale.
// It panics on a non-positive time scale.
func NewFrame(m geom.Affine, timeScale float64) Frame {
	if timeScale <= 0 {
		panic(fmt.Sprintf("segment: NewFrame with non-positive time scale %v", timeScale))
	}
	return Frame{m: m, tau: timeScale, opNorm: m.M.OperatorNorm(), arc: newArcFrame(m.M)}
}

// DurationAndLength returns the duration and path length of s under the
// frame: (d·τ)·mod and l·‖M‖ for the payload's duration d and length l, the
// dilation outside the frame's clock. For similarity maps (the only maps
// robot frames produce) the length is exact; for general maps it is an
// upper bound.
func (f *Frame) DurationAndLength(s *Seg) (dur, length float64) {
	dur, length = s.payloadDurationAndLength()
	dur *= f.tau
	if s.mod != 0 {
		dur *= s.mod
	}
	return dur, length * f.opNorm
}

// Duration places a pulled segment's duration: raw is s's raw duration
// (Seg.DurationAndLength), and the result is s's duration under the frame,
// bit for bit DurationAndLength's. That is raw·τ, or, for a modulated
// segment, whose dilation applies outside the frame's clock, the payload's
// (d·τ)·mod. A raw length places as length·‖M‖ (Norm) in either case. It
// is the one placement rule of the walks and of trajectory.Path, and small
// enough to inline.
func (f *Frame) Duration(s *Seg, raw float64) float64 {
	if s.mod != 0 {
		raw, _ = f.DurationAndLength(s)
		return raw
	}
	return raw * f.tau
}

// Position returns the position of s under the frame at time t after its
// start; arguments outside its duration clamp to the endpoints.
func (f *Frame) Position(s *Seg, t float64) geom.Vec {
	if s.mod != 0 {
		t /= s.mod
	}
	return f.m.Apply(s.payloadPosition(t / f.tau))
}

// Endpoints returns the images of s's start and end points under the
// frame.
func (f *Frame) Endpoints(s *Seg) (start, end geom.Vec) {
	return f.m.Apply(s.Start()), f.m.Apply(s.End())
}

// MaxSpeed returns an upper bound on the speed of s under the frame:
// (v·‖M‖/τ)/mod for the payload's bound v.
func (f *Frame) MaxSpeed(s *Seg) float64 {
	v := s.payloadMaxSpeed() * f.opNorm / f.tau
	if s.mod != 0 {
		v /= s.mod
	}
	return v
}

// ArcAtDur returns the exact circular geometry of the arc s under the
// frame, from the cached similarity constants; dur must equal its duration
// under the frame. ok is false for anything but an arc, for a
// modulated arc (which walks place conservatively) and for a
// non-similarity map.
func (f *Frame) ArcAtDur(s *Seg, dur float64) (ArcGeometry, bool) {
	if s.kind != KindArc || s.mod != 0 || !f.arc.similar {
		return ArcGeometry{}, false
	}
	return f.arc.place(s.arc(), f.m, f.tau, dur, true), true
}

// Translation returns the frame's translation T: where the robot starts.
func (f *Frame) Translation() geom.Vec { return f.m.T }

// Twin reports whether g places segments exactly as f does up to the
// translation: their linear parts and clocks are equal as math.Float64bits,
// and the map is a similarity, so arcs place as arcs. Twins give one raw
// segment bit-equal durations, lengths, radii and angular velocities; the
// placed points differ by T_g − T_f up to the rounding of adding the
// translation.
func (f *Frame) Twin(g *Frame) bool {
	a, b := f.m.M, g.m.M
	return f.arc.similar &&
		math.Float64bits(a.A) == math.Float64bits(b.A) &&
		math.Float64bits(a.B) == math.Float64bits(b.B) &&
		math.Float64bits(a.C) == math.Float64bits(b.C) &&
		math.Float64bits(a.D) == math.Float64bits(b.D) &&
		f.SameClock(g)
}

// SameClock reports whether f and g run on one clock, their τ equal as
// math.Float64bits, so they give a raw segment bit-equal durations.
func (f *Frame) SameClock(g *Frame) bool {
	return math.Float64bits(f.tau) == math.Float64bits(g.tau)
}

// Norm returns ‖M‖₂, the factor the frame scales lengths by.
func (f *Frame) Norm() float64 { return f.opNorm }
