package segment

import (
	"fmt"
	"math"

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
// an optional speed-modulation time dilation. A Seg is always in its
// program's own frame; a robot's frame (map and clock) is placement state,
// applied by segment.Frame where a walk places the segment.
//
// Seg replaces the old Segment interface on the simulator hot path: yielding
// a Seg through a callback moves a struct, not a freshly boxed interface
// value, so trajectory generation performs no per-segment heap allocation.
// The evaluation arithmetic (Duration, Position, ...) performs the same
// float64 operations in the same order as the former Wait/Line/Arc method
// chains, so simulation results — and the experiment tables derived from
// them — are bit-identical to the interface representation.
//
// Payload fields are shared across kinds to keep the struct compact:
//
//	Wait: a=At                       s1=Time
//	Line: a=From  b=To               s1=Speed
//	Arc:  a=Center                   s1=Radius s2=StartAngle s3=Sweep s4=Speed
type Seg struct {
	kind Kind

	a, b           geom.Vec
	s1, s2, s3, s4 float64

	// mod is the time dilation applied by speed modulation: one payload time
	// unit lasts mod units of the program's clock. 0 means none. Under a
	// Frame it stays outside the frame's clock dilation (see Frame).
	mod float64
}

// Seg converts the Wait into its value-union form.
func (w Wait) Seg() Seg { return Seg{kind: KindWait, a: w.At, s1: w.Time} }

// Seg converts the Line into its value-union form.
func (l Line) Seg() Seg { return Seg{kind: KindLine, a: l.From, b: l.To, s1: l.Speed} }

// Seg converts the Arc into its value-union form.
func (a Arc) Seg() Seg {
	return Seg{kind: KindArc, a: a.Center, s1: a.Radius, s2: a.StartAngle, s3: a.Sweep, s4: a.Speed}
}

// SetWait sets s to NewWait(at, duration).Seg() in place. Generators fill
// the segment they hand out through these setters: assigning a converted
// payload would build a temporary and copy it, and the setters write the
// fields one by one.
func (s *Seg) SetWait(at geom.Vec, duration float64) {
	checkWait(duration)
	s.kind, s.a, s.b = KindWait, at, geom.Vec{}
	s.s1, s.s2, s.s3, s.s4, s.mod = duration, 0, 0, 0, 0
}

// SetLine sets s to NewLine(from, to, speed).Seg() in place.
func (s *Seg) SetLine(from, to geom.Vec, speed float64) {
	checkLine(from, to, speed)
	s.kind, s.a, s.b = KindLine, from, to
	s.s1, s.s2, s.s3, s.s4, s.mod = speed, 0, 0, 0, 0
}

// SetArc sets s to NewArc(center, radius, startAngle, sweep, speed).Seg()
// in place.
func (s *Seg) SetArc(center geom.Vec, radius, startAngle, sweep, speed float64) {
	checkArc(radius, sweep, speed)
	s.kind, s.a, s.b = KindArc, center, geom.Vec{}
	s.s1, s.s2, s.s3, s.s4, s.mod = radius, startAngle, sweep, speed, 0
}

// panicf panics with a formatted message; kept out of line so that the
// argument checks stay small enough for the constructors to inline.
//
//go:noinline
func panicf(format string, arg float64) {
	panic(fmt.Sprintf(format, arg))
}

// Kind returns the payload kind.
func (s *Seg) Kind() Kind { return s.kind }

// Modulated reports whether the segment carries a speed-modulation time
// dilation.
func (s *Seg) Modulated() bool { return s.mod != 0 }

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

// Dilated rescales the segment's time unit by timeScale (geometry
// unchanged, duration multiplied) — the speed-modulation transform. It
// panics on a non-positive scale or when a dilation is already present.
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

// Duration returns the time needed to traverse the segment.
func (s *Seg) Duration() float64 {
	d, _ := s.payloadDurationAndLength()
	if s.mod != 0 {
		d *= s.mod
	}
	return d
}

// Position returns the position at time t; arguments outside
// [0, Duration] clamp to the endpoints.
func (s *Seg) Position(t float64) geom.Vec {
	if s.mod != 0 {
		t /= s.mod
	}
	return s.payloadPosition(t)
}

// payloadPosition is the payload position at payload-local time t.
func (s *Seg) payloadPosition(t float64) geom.Vec {
	switch s.kind {
	case KindWait:
		return s.a
	case KindLine:
		return s.line().Position(t)
	default:
		return s.arc().Position(t)
	}
}

// Start returns Position(0).
func (s *Seg) Start() geom.Vec {
	switch s.kind {
	case KindWait, KindLine:
		return s.a
	default:
		return s.arc().Start()
	}
}

// End returns Position(Duration()).
func (s *Seg) End() geom.Vec {
	switch s.kind {
	case KindWait:
		return s.a
	case KindLine:
		return s.b
	default:
		return s.arc().End()
	}
}

// Reach returns an upper bound on the norm of every point of the segment
// and, for an arc, of its center: the sum of its payload points' 1-norms,
// plus the radius for an arc. It is cheap enough to test per segment.
func (s *Seg) Reach() float64 {
	q := math.Abs(s.a.X) + math.Abs(s.a.Y) + math.Abs(s.b.X) + math.Abs(s.b.Y)
	if s.kind == KindArc {
		q += s.s1
	}
	return q
}

// MaxSpeed returns an upper bound on the instantaneous speed anywhere on the
// segment.
func (s *Seg) MaxSpeed() float64 {
	v := s.payloadMaxSpeed()
	if s.mod != 0 {
		v /= s.mod
	}
	return v
}

// payloadMaxSpeed is the payload's speed bound in payload-local time.
func (s *Seg) payloadMaxSpeed() float64 {
	switch s.kind {
	case KindWait:
		return 0
	case KindLine:
		return s.line().MaxSpeed()
	default:
		return s.arc().MaxSpeed()
	}
}

// DurationAndLength returns Duration() and PathLength() together, sharing
// the payload length computation (for a Line both derive from the same
// endpoint distance — one hypot instead of two). The values are bit-
// identical to the separate methods: Line.Duration is dist/Speed with the
// same dist, and Arc.Duration is PathLength()/speed by definition.
func (s *Seg) DurationAndLength() (dur, length float64) {
	dur, length = s.payloadDurationAndLength()
	if s.mod != 0 {
		dur *= s.mod
	}
	return dur, length
}

// payloadDurationAndLength is DurationAndLength without the time dilation.
func (s *Seg) payloadDurationAndLength() (dur, length float64) {
	switch s.kind {
	case KindWait:
		return s.s1, 0
	case KindLine:
		l := s.line()
		length = l.From.Dist(l.To)
		if l.From == l.To {
			return 0, length
		}
		return length / l.Speed, length
	default:
		a := s.arc()
		length = a.PathLength()
		return length / a.speedOr1(), length
	}
}

// PathLength returns the arc length of the segment.
func (s *Seg) PathLength() float64 {
	switch s.kind {
	case KindWait:
		return 0
	case KindLine:
		return s.line().PathLength()
	default:
		return s.arc().PathLength()
	}
}
