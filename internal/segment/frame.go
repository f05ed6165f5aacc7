package segment

import (
	"fmt"

	"repro/internal/geom"
)

// Frame is a reusable frame transform: the affine map x ↦ M·x + T and clock
// dilation of the paper's local→global shift (a robot's attributes, fixed
// for a whole walk), with the per-map constants computed once at
// construction instead of once per segment:
//
//   - ‖M‖₂, the factor DurationAndLength and MaxSpeed scale by;
//   - the arc-placement constants of ArcAtDur's framed branch: whether M is
//     a similarity, its scale and its handedness.
//
// A walk over a local program applies the frame at placement —
// motion.Mover.SetFramed places each raw segment under it, and Scale maps
// its raw duration and length — so no framed Seg is built per segment.
// Every cached constant is computed by the same deterministic arithmetic
// the per-segment path runs, so placement through a Frame is bit-identical
// to placing the framed segment Apply returns.
type Frame struct {
	m      geom.Affine
	tau    float64
	opNorm float64
	arc    arcFrame
}

// NewFrame builds a Frame for the affine map m and time dilation timeScale.
// It panics on a non-positive time scale, mirroring Transformed.
func NewFrame(m geom.Affine, timeScale float64) Frame {
	if timeScale <= 0 {
		panic(fmt.Sprintf("segment: Transformed with non-positive time scale %v", timeScale))
	}
	return Frame{m: m, tau: timeScale, opNorm: m.M.OperatorNorm(), arc: newArcFrame(m.M)}
}

// Apply returns the segment under the frame: the payload with the map, the
// clock dilation and the cached operator norm folded in (Seg.Transformed is
// NewFrame followed by Apply). It panics when a frame transform is already
// present or the segment carries a time dilation.
func (f *Frame) Apply(s *Seg) Seg {
	if s.framed {
		panic("segment: Seg already carries a frame transform")
	}
	if s.mod != 0 {
		panic("segment: frame transform under an existing time dilation")
	}
	out := *s
	out.framed = true
	out.m = f.m
	out.tau = f.tau
	out.opNorm = f.opNorm
	return out
}

// Scale maps a raw (payload-local) duration and path length through the
// frame: dur·tau and length·opNorm, the same multiplications — in the same
// order — DurationAndLength applies to a framed, unmodulated segment.
func (f *Frame) Scale(dur, length float64) (float64, float64) {
	return dur * f.tau, length * f.opNorm
}

// Endpoints returns the images of a raw wait's or line's endpoints under the
// frame: Start() and End() of f.Apply(s), without building the framed
// segment. s must be a raw (unframed, unmodulated) wait or line.
func (f *Frame) Endpoints(s *Seg) (start, end geom.Vec) {
	return f.m.Apply(s.innerStart()), f.m.Apply(s.innerEnd())
}

// ArcAtDur is ArcAtDur(f.Apply(s), dur) for a raw arc s, computed from the
// cached similarity constants; dur must equal the framed duration. ok is
// false for anything but a raw arc and for a non-similarity map.
func (f *Frame) ArcAtDur(s *Seg, dur float64) (ArcGeometry, bool) {
	if s.kind != KindArc || s.framed || s.mod != 0 || !f.arc.similar {
		return ArcGeometry{}, false
	}
	return f.arc.place(s.arc(), f.m, f.tau, dur, true), true
}
