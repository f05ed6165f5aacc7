// Package frame models the hidden attributes of a robot — moving speed,
// clock unit, compass orientation, and chirality — and maps trajectory
// algorithms expressed in a robot's local frame into the global frame.
//
// Following Section 1.1 of the paper, the analysis is presented from the
// viewpoint of the reference robot R (unit speed, unit clock, correct
// compass, positive chirality). The second robot R′ has speed v > 0, time
// unit τ > 0, orientation φ ∈ [0, 2π), and chirality χ = ±1. A robot's
// distance unit is the product of its speed and its local time unit, so an
// instruction "move distance δ" makes R′ travel vτδ global distance over τδ
// global time.
package frame

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// Chirality is a robot's handedness: which way it believes +y points
// relative to +x.
type Chirality int

// Chirality values. CCW (+1) is the reference handedness.
const (
	CCW Chirality = +1
	CW  Chirality = -1
)

// String implements fmt.Stringer.
func (c Chirality) String() string {
	switch c {
	case CCW:
		return "ccw"
	case CW:
		return "cw"
	default:
		return fmt.Sprintf("Chirality(%d)", int(c))
	}
}

// Attributes are the hidden parameters of a robot, relative to the global
// (reference) frame. The zero value is invalid; use Reference for the
// reference robot.
type Attributes struct {
	// V is the constant moving speed, in global distance per global time.
	V float64
	// Tau is the robot's local time unit measured in global time units:
	// one tick of the robot's clock lasts Tau global time units.
	Tau float64
	// Phi is the counter-clockwise rotation of the robot's coordinate axes
	// relative to the global axes, in radians.
	Phi float64
	// Chi is the robot's chirality.
	Chi Chirality
}

// Reference returns the attributes of the reference robot R: unit speed,
// unit clock, aligned compass, positive chirality.
func Reference() Attributes {
	return Attributes{V: 1, Tau: 1, Phi: 0, Chi: CCW}
}

// Validation errors.
var (
	ErrNonPositiveSpeed = errors.New("frame: speed must be positive")
	ErrNonPositiveClock = errors.New("frame: clock unit must be positive")
	ErrBadChirality     = errors.New("frame: chirality must be +1 or -1")
	ErrNotFinite        = errors.New("frame: attributes must be finite")
)

// Validate reports whether the attributes describe a legal robot.
func (a Attributes) Validate() error {
	if math.IsNaN(a.V) || math.IsInf(a.V, 0) ||
		math.IsNaN(a.Tau) || math.IsInf(a.Tau, 0) ||
		math.IsNaN(a.Phi) || math.IsInf(a.Phi, 0) {
		return ErrNotFinite
	}
	if a.V <= 0 {
		return ErrNonPositiveSpeed
	}
	if a.Tau <= 0 {
		return ErrNonPositiveClock
	}
	if a.Chi != CCW && a.Chi != CW {
		return ErrBadChirality
	}
	return nil
}

// DistanceUnit returns the robot's distance unit in global units: V·Tau
// (the distance covered in one local clock tick).
func (a Attributes) DistanceUnit() float64 { return a.V * a.Tau }

// LinearMap returns the linear part of the local→global map:
// (V·Tau)·Rot(Phi)·Diag(1, Chi). For τ = 1 this is the matrix of Lemma 4.
func (a Attributes) LinearMap() geom.Mat {
	return geom.FrameMatrix(a.DistanceUnit(), a.Phi, int(a.Chi))
}

// Affine returns the full local→global affine map for a robot whose initial
// (global) position is origin.
func (a Attributes) Affine(origin geom.Vec) geom.Affine {
	return geom.Affine{M: a.LinearMap(), T: origin}
}

// Apply maps a local-frame trajectory source (unit speed, unit clock, robot
// at its own origin) into the global frame for a robot with these attributes
// starting at origin. Durations stretch by Tau; distances by V·Tau; the
// instantaneous global speed of unit-speed local motion is V.
func (a Attributes) Apply(src trajectory.Source, origin geom.Vec) trajectory.Source {
	return trajectory.Transform(src, a.Affine(origin), a.Tau)
}

// Frame returns the same map and clock as a segment.Frame, with its
// per-frame constants computed once: walks over a local program apply it at
// placement instead of transforming every segment (see segment.Frame).
func (a Attributes) Frame(origin geom.Vec) segment.Frame {
	return segment.NewFrame(a.Affine(origin), a.Tau)
}

// Mu returns μ = sqrt(v² − 2v·cosφ + 1) for these attributes (Theorem 2).
func (a Attributes) Mu() float64 { return geom.Mu(a.V, a.Phi) }

// SymmetricTo reports whether two attribute sets are perfectly symmetric —
// i.e. rendezvous between robots with these attributes is infeasible by
// Theorem 4 when a is the reference. Exported for tests; the feasibility
// package provides the full classification.
func (a Attributes) SymmetricTo(b Attributes) bool {
	return a.V == b.V && a.Tau == b.Tau &&
		normAngle(a.Phi) == normAngle(b.Phi) && a.Chi == b.Chi
}

// normAngle reduces an angle to [0, 2π).
func normAngle(phi float64) float64 {
	phi = math.Mod(phi, 2*math.Pi)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	return phi
}

// NormPhi returns the orientation reduced to [0, 2π).
func (a Attributes) NormPhi() float64 { return normAngle(a.Phi) }

// String implements fmt.Stringer.
func (a Attributes) String() string {
	return fmt.Sprintf("{v=%g τ=%g φ=%g χ=%s}", a.V, a.Tau, a.Phi, a.Chi)
}
