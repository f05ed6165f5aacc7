package segment

import (
	"fmt"

	"repro/internal/geom"
)

// Kind tags the payload variant of a Seg.
type Kind uint8

// Seg payload kinds.
const (
	KindWait Kind = iota
	KindLine
	KindArc
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWait:
		return "wait"
	case KindLine:
		return "line"
	case KindArc:
		return "arc"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Seg is a value-typed segment union: one Wait, Line, or Arc payload plus
// the two transforms the trajectory layer folds in — a frame map (affine map
// + clock dilation) and, outside it, a speed-modulation time dilation.
//
// Seg replaces the old Segment interface on the simulator hot path: yielding
// a Seg through a callback moves a struct, not a freshly boxed interface
// value, so trajectory generation performs no per-segment heap allocation.
// The evaluation arithmetic (Duration, Position, ...) performs the same
// float64 operations in the same order as the former
// Wait/Line/Arc/Transformed method chains, so simulation results — and the
// experiment tables derived from them — are bit-identical to the interface
// representation.
//
// Payload fields are shared across kinds to keep the struct compact:
//
//	Wait: a=At                       s1=Time
//	Line: a=From  b=To               s1=Speed
//	Arc:  a=Center                   s1=Radius s2=StartAngle s3=Sweep s4=Speed
type Seg struct {
	kind   Kind
	framed bool // frame transform present (m, tau, opNorm valid)

	a, b           geom.Vec
	s1, s2, s3, s4 float64

	// mod is the time dilation applied by speed modulation: one framed time
	// unit lasts mod outer units. 0 means none. It is applied *outside* the
	// frame transform, mirroring the former
	// Transformed(identity, mod){Transformed(frame, tau){payload}} nesting
	// (experiments modulate global-frame trajectories).
	mod float64

	m      geom.Affine // frame map (local → global)
	tau    float64     // frame clock dilation
	opNorm float64     // cached ‖m.M‖₂
}

// Seg converts the Wait into its value-union form.
func (w Wait) Seg() Seg { return Seg{kind: KindWait, a: w.At, s1: w.Time} }

// Seg converts the Line into its value-union form.
func (l Line) Seg() Seg { return Seg{kind: KindLine, a: l.From, b: l.To, s1: l.Speed} }

// Seg converts the Arc into its value-union form.
func (a Arc) Seg() Seg {
	return Seg{kind: KindArc, a: a.Center, s1: a.Radius, s2: a.StartAngle, s3: a.Sweep, s4: a.Speed}
}

// Kind returns the payload kind.
func (s *Seg) Kind() Kind { return s.kind }

// Framed reports whether the segment carries a frame transform.
func (s *Seg) Framed() bool { return s.framed }

// Modulated reports whether the segment carries a speed-modulation time
// dilation.
func (s *Seg) Modulated() bool { return s.mod != 0 }

// Frame returns the frame transform, if any.
func (s *Seg) Frame() (m geom.Affine, timeScale float64, ok bool) {
	return s.m, s.tau, s.framed
}

// AsWait returns the Wait payload (without transforms) when the kind matches.
func (s *Seg) AsWait() (Wait, bool) { return s.wait(), s.kind == KindWait }

// AsLine returns the Line payload (without transforms) when the kind matches.
func (s *Seg) AsLine() (Line, bool) { return s.line(), s.kind == KindLine }

// AsArc returns the Arc payload (without transforms) when the kind matches.
func (s *Seg) AsArc() (Arc, bool) { return s.arc(), s.kind == KindArc }

func (s *Seg) wait() Wait { return Wait{At: s.a, Time: s.s1} }
func (s *Seg) line() Line { return Line{From: s.a, To: s.b, Speed: s.s1} }
func (s *Seg) arc() Arc {
	return Arc{Center: s.a, Radius: s.s1, StartAngle: s.s2, Sweep: s.s3, Speed: s.s4}
}

// Transformed returns the segment under the affine map m and time dilation
// timeScale — the local→global frame shift of the paper. It panics on a
// non-positive time scale or when a frame transform is already present
// (frames are applied exactly once, at the outermost trajectory layer). It is
// NewFrame(m, timeScale).Apply(s); walks that apply one frame to many
// segments build the Frame once instead.
func (s *Seg) Transformed(m geom.Affine, timeScale float64) Seg {
	f := NewFrame(m, timeScale)
	return f.Apply(s)
}

// Dilated rescales the segment's time unit by timeScale (geometry
// unchanged, duration multiplied) — the speed-modulation transform, applied
// outside any frame transform already present. It panics on a non-positive
// scale or when a dilation is already present.
func (s *Seg) Dilated(timeScale float64) Seg {
	if timeScale <= 0 {
		panic(fmt.Sprintf("segment: Dilated with non-positive time scale %v", timeScale))
	}
	if s.mod != 0 {
		panic("segment: Seg already carries a time dilation")
	}
	out := *s
	out.mod = timeScale
	return out
}

// innerDuration is the payload duration in payload-local time.
func (s *Seg) innerDuration() float64 {
	switch s.kind {
	case KindWait:
		return s.s1
	case KindLine:
		return s.line().Duration()
	default:
		return s.arc().Duration()
	}
}

// Duration returns the (outer-local) time needed to traverse the segment.
func (s *Seg) Duration() float64 {
	d := s.innerDuration()
	if s.framed {
		d *= s.tau
	}
	if s.mod != 0 {
		d *= s.mod
	}
	return d
}

// Position returns the position at local time t; arguments outside
// [0, Duration] clamp to the endpoints.
func (s *Seg) Position(t float64) geom.Vec {
	if s.mod != 0 {
		t /= s.mod
	}
	if s.framed {
		t /= s.tau
	}
	var p geom.Vec
	switch s.kind {
	case KindWait:
		p = s.a
	case KindLine:
		p = s.line().Position(t)
	default:
		p = s.arc().Position(t)
	}
	if s.framed {
		p = s.m.Apply(p)
	}
	return p
}

// innerStart is the payload start point.
func (s *Seg) innerStart() geom.Vec {
	switch s.kind {
	case KindWait, KindLine:
		return s.a
	default:
		return s.arc().Start()
	}
}

// innerEnd is the payload end point.
func (s *Seg) innerEnd() geom.Vec {
	switch s.kind {
	case KindWait:
		return s.a
	case KindLine:
		return s.b
	default:
		return s.arc().End()
	}
}

// Start returns Position(0).
func (s *Seg) Start() geom.Vec {
	p := s.innerStart()
	if s.framed {
		p = s.m.Apply(p)
	}
	return p
}

// End returns Position(Duration()).
func (s *Seg) End() geom.Vec {
	p := s.innerEnd()
	if s.framed {
		p = s.m.Apply(p)
	}
	return p
}

// MaxSpeed returns an upper bound on the instantaneous speed anywhere on the
// segment.
func (s *Seg) MaxSpeed() float64 {
	var v float64
	switch s.kind {
	case KindWait:
		v = 0
	case KindLine:
		v = s.line().MaxSpeed()
	default:
		v = s.arc().MaxSpeed()
	}
	if s.framed {
		v = v * s.opNorm / s.tau
	}
	if s.mod != 0 {
		v /= s.mod
	}
	return v
}

// DurationAndLength returns Duration() and PathLength() together, sharing
// the payload length computation (for a Line both derive from the same
// endpoint distance — one hypot instead of two). The values are bit-
// identical to the separate methods: Line.Duration is dist/Speed with the
// same dist, and Arc.Duration is PathLength()/speed by definition.
func (s *Seg) DurationAndLength() (dur, length float64) {
	switch s.kind {
	case KindWait:
		dur, length = s.s1, 0
	case KindLine:
		l := s.line()
		length = l.From.Dist(l.To)
		if l.From == l.To {
			dur = 0
		} else {
			dur = length / l.Speed
		}
	default:
		a := s.arc()
		length = a.PathLength()
		dur = length / a.speedOr1()
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

// PathLength returns the arc length of the segment. For similarity frame
// maps (the only maps reference frames produce) it is exact; for general
// affine maps it is an upper bound.
func (s *Seg) PathLength() float64 {
	var l float64
	switch s.kind {
	case KindWait:
		l = 0
	case KindLine:
		l = s.line().PathLength()
	default:
		l = s.arc().PathLength()
	}
	if s.framed {
		l *= s.opNorm
	}
	return l
}
