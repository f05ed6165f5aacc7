// Package motion computes first-contact times between two moving points:
// the earliest time their distance drops to a given radius. This is the
// primitive behind both problems of the paper — search (robot vs. static
// target, contact radius = visibility r) and rendezvous (robot vs. robot).
//
// A motion is one trajectory segment placed on absolute time, held in a
// value-typed Mover (see Mover.Set for the conversion rules), and Contact
// is the one first-contact entry point. Four cases are distinguished
// because they admit different detection algorithms:
//
//   - Linear (includes static): relative motion is linear, first contact is
//     a quadratic equation.
//   - Arc vs. static point: the squared distance is sinusoidal in the arc
//     angle, first contact is an arccos.
//   - Arc vs. arc with the same angular velocity ω: the paper's reduction of
//     rendezvous to search. Two robots that agree on clock and orientation
//     run similarity images of one program on one clock, so their arcs
//     share ω and the relative position (Cₐ − C_b) + K·e^{iωt} is itself a
//     point on a circle; first contact is the arc-vs-static arccos against
//     the origin (see equalOmega).
//   - Anything else (arcs with different ω, arc vs. moving line, modulated
//     segments): SafeAdvance, a conservative iteration. If the current gap
//     is g and the relative speed is at most u, no contact can occur for
//     g/u time, so advancing by g/u is always sound; the iteration
//     converges to the true first contact from below and cannot skip one.
package motion

import (
	"errors"
	"math"

	"repro/internal/geom"
)

// Linear is uniform linear motion: position P0 + Vel·(t − T0). Vel may be
// zero (a static point or a waiting robot).
type Linear struct {
	T0  float64
	P0  geom.Vec
	Vel geom.Vec
}

// At returns the position at absolute time t.
func (l Linear) At(t float64) geom.Vec { return l.P0.Add(l.Vel.Scale(t - l.T0)) }

// SpeedBound returns the speed.
func (l Linear) SpeedBound() float64 { return l.Vel.Norm() }

// Static returns the Linear motion of a point fixed at p.
func Static(p geom.Vec) Linear { return Linear{P0: p} }

// Circular is uniform circular motion: position
// Center + Radius·e^{i(Theta0 + Omega·(t − T0))}.
type Circular struct {
	T0     float64
	Center geom.Vec
	Radius float64
	Theta0 float64
	Omega  float64 // signed angular velocity
}

// At returns the position at absolute time t.
func (c Circular) At(t float64) geom.Vec {
	return c.Center.Add(geom.Polar(c.Radius, c.angle(t)))
}

// angle returns the angle θ(t) = Theta0 + Omega·(t − T0) at absolute time t.
func (c *Circular) angle(t float64) float64 { return c.Theta0 + c.Omega*(t-c.T0) }

// SpeedBound returns the speed.
func (c Circular) SpeedBound() float64 { return c.Radius * math.Abs(c.Omega) }

// Options tune the safe-advance fallback.
type Options struct {
	// Slack is the absolute gap at which the fallback declares contact:
	// it reports a hit when |Δp| ≤ r + Slack. Must be > 0 for the fallback
	// to terminate. The equal-ω arc×arc closed form solves |Δp| = r + Slack
	// exactly, the same hit test; the other closed forms solve |Δp| = r
	// and ignore it.
	Slack float64
	// MaxIters bounds the number of safe-advance steps per interval.
	MaxIters int
}

// DefaultOptions returns the detection options used by the simulator for a
// contact radius r: slack proportional to r, generous iteration budget.
func DefaultOptions(r float64) Options {
	return Options{Slack: 1e-9 * r, MaxIters: 50_000_000}
}

// ErrIterationBudget is returned when the conservative fallback exhausts
// Options.MaxIters before resolving the interval. With a positive slack this
// indicates an extremely long grazing approach; enlarge Slack or MaxIters.
var ErrIterationBudget = errors.New("motion: safe-advance iteration budget exhausted")

// equalOmega solves first contact between two arcs that turn at the same
// angular velocity ω, exactly. It is the paper's reduction of rendezvous to
// search (Theorem 2) applied to one interval: a robot whose clock
// and orientation match its peer's (τ = 1, χ = +1) runs a similarity image
// of the same program on the same clock, so wherever both robots are on
// arcs the arcs share ω, and the relative position
//
//	a(t) − b(t) = (Cₐ − C_b) + K·e^{iω(t − t0)},  K = a(t0)−Cₐ − (b(t0)−C_b)
//
// is itself a point on uniform circular motion. Its first contact with the
// origin is the arc-vs-static arccos of arcHit.
//
// The contact radius is r + opt.Slack, the conservative fallback's own hit
// test, so the closed form answers the question the fallback would have
// answered, at the exact crossing instead of from below. ok is false when
// the pair does not qualify — ω not bit-equal, or opt.Slack ≤ 0, where the
// fallback's ErrIterationBudget contract is kept — and the caller falls
// back to safe advance.
func equalOmega(a, b Circular, r, t0, t1 float64, opt Options) (t float64, found, ok bool) {
	if a.Omega != b.Omega || opt.Slack <= 0 {
		return 0, false, false
	}
	k := geom.Polar(a.Radius, a.angle(t0)).Sub(geom.Polar(b.Radius, b.angle(t0)))
	rel := Circular{
		T0:     t0,
		Center: a.Center.Sub(b.Center),
		Radius: k.Norm(),
		Theta0: k.Angle(),
		Omega:  a.Omega,
	}
	t, found = arcHit(rel.Center, rel.Radius, rel.Omega, rel.angle(t0), geom.Vec{}, r+opt.Slack, t0, t1)
	return t, found, true
}

// linearHit is the linear closed form, shared by Contact and
// StaticSweep.LinearAt: it solves |p0 + w·(t−t0)| = r on [t0, t1] exactly
// and returns the earliest t with |p0 + w·(t−t0)| ≤ r, where p0 = a0 − b0
// is the relative position at t0, w the relative velocity and qa its
// squared norm |w|².
func linearHit(a0, b0, w geom.Vec, qa, r, t0, t1 float64) (float64, bool) {
	if t1 < t0 {
		return 0, false
	}
	p0 := a0.Sub(b0)
	c := p0.Norm2() - r*r
	if c <= 0 {
		return t0, true // already in contact
	}
	if qa == 0 {
		return 0, false // constant positive gap
	}
	qb := 2 * p0.Dot(w)
	// Roots of qa·s² + qb·s + c = 0 for s = t − t0, with discriminant
	// qb² − 4·qa·c. At a double root (a tangent graze) qb² can compute a
	// little below 4·qa·c, so the miss test allows a relative gap of
	// 2⁻⁴⁸ = 32u, u = 2⁻⁵³, and a negative disc inside it is taken as 0.
	// Proof that 32u covers a tangent: let Qa, Qb, C be qa, qb, c computed
	// exactly from p0, w and r, with Qb² = 4·Qa·C. Then
	//   - qa = |w|² sums two rounded products of positive terms: relative
	//     error ≤ 2u;
	//   - c = |p0|² − r² has absolute error ≤ 2u|p0|² + u·r² + u·C, which
	//     is ≤ 6u·C when C ≥ r² (p0 starts at least √2·r out);
	//   - qb = 2·p0·w has error ≤ 2u·|p0||w|, and at a tangent with C ≥ r²,
	//     |p0·w| = |p0||w|·√(C/|p0|²) ≥ |p0||w|/√2: relative error ≤ 2√2·u;
	//   - qb2 and qac4 round once more each.
	// So qb2 is within 4√2·u + u < 7u of Qb² and qac4 within
	// 2u + 6u + u = 9u, a gap of at most 16u to first order: half the
	// allowance. An accepted miss has closest approach d with
	// d² − r² = (qac4 − qb2)/(4·qa) ≤ 32u·c, a rounding-level graze. From
	// within √2·r, c can carry a larger error and a graze may still read as
	// a miss.
	qb2, qac4 := qb*qb, 4*qa*c
	if qb2 < qac4*(1-0x1p-48) {
		return 0, false
	}
	disc := max(qb2-qac4, 0)
	sq := math.Sqrt(disc)
	// Numerically stable root pair.
	var s1, s2 float64
	if qb >= 0 {
		q := -(qb + sq) / 2
		s1, s2 = q/qa, c/q
	} else {
		q := -(qb - sq) / 2
		s1, s2 = c/q, q/qa
	}
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	// Earliest root within the interval; the gap is > r before s1.
	switch {
	case s1 >= 0 && t0+s1 <= t1:
		return t0 + s1, true
	case s1 < 0 && s2 >= 0:
		// We started inside the contact disk — but c > 0 ruled that out;
		// this can only happen through round-off. Treat as immediate.
		return t0, true
	default:
		return 0, false
	}
}

// arcHit is the arc-vs-static closed form, shared by Contact, equalOmega and
// StaticSweep.CircularAt: it solves first contact between a point on
// uniform circular motion and a static point p exactly, and returns the
// earliest t in [t0, t1] at which the point
// center + radius·e^{iθ(t)}, turning at omega with θ(t0) = theta, is
// within r of the static point p.
//
// With u(t) = center − p + radius·e^{iθ(t)} and D = |center − p|:
//
//	|u|² = D² + R² + 2RD·cos(θ − β),  β = angle(center − p)
//
// so |u| ≤ r ⇔ cos(θ − β) ≤ (r² − D² − R²) / (2RD).
func arcHit(center geom.Vec, radius, omega, theta float64, p geom.Vec, r, t0, t1 float64) (float64, bool) {
	if t1 < t0 {
		return 0, false
	}
	cp := center.Sub(p)
	d := cp.Norm()
	// Degenerate cases: constant distance.
	if radius == 0 || omega == 0 || d == 0 {
		if center.Add(geom.Polar(radius, theta)).Dist(p) <= r {
			return t0, true
		}
		return 0, false
	}
	rhs := (r*r - d*d - radius*radius) / (2 * radius * d)
	if rhs >= 1 {
		return t0, true // contact holds for every angle
	}
	if rhs < -1 {
		return 0, false // no angle achieves contact
	}
	alpha := math.Acos(rhs) // contact set: ψ = θ−β ∈ [α, 2π−α] (mod 2π)
	beta := cp.Angle()
	psi0 := normAngle(theta - beta)

	if psi0 >= alpha && psi0 <= 2*math.Pi-alpha {
		return t0, true
	}
	var dt float64
	if omega > 0 {
		// ψ increases; first entry at ψ = α.
		dt = forwardDelta(psi0, alpha) / omega
	} else {
		// ψ decreases; first entry at ψ = 2π − α.
		dt = forwardDelta(2*math.Pi-alpha, psi0) / -omega
	}
	if t0+dt <= t1 {
		return t0 + dt, true
	}
	return 0, false
}

// normAngle reduces an angle to [0, 2π).
func normAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// forwardDelta returns the counter-clockwise angular distance from angle
// "from" to angle "to", in [0, 2π).
func forwardDelta(from, to float64) float64 {
	return normAngle(to - from)
}

// SafeAdvance is the safe-advance fallback: the earliest t in [t0, t1]
// at which |a(t) − b(t)| ≤ r + opt.Slack, sound for any pair of motions
// with valid speed bounds. It never advances past a true contact because
// the gap closes at most at the combined speed bound.
//
// It is generic over the motion representation, so one copy of the
// iteration serves the value-typed hot path (Contact, M = *Mover) and
// callers that supply their own position function, such as the detector
// ablation.
func SafeAdvance[M interface {
	At(t float64) geom.Vec
	SpeedBound() float64
}](a, b M, r, t0, t1 float64, opt Options) (float64, bool, error) {
	u := a.SpeedBound() + b.SpeedBound()
	t := t0
	g := a.At(t).Dist(b.At(t)) - r
	if g <= opt.Slack {
		return t, true, nil
	}
	if u == 0 {
		return 0, false, nil // constant gap
	}
	if opt.Slack <= 0 {
		return 0, false, ErrIterationBudget // cannot guarantee termination
	}
	for iter := 0; iter < opt.MaxIters; iter++ {
		step := g / u
		t += step
		if t > t1 {
			return 0, false, nil // gap cannot close before the interval ends
		}
		g = a.At(t).Dist(b.At(t)) - r
		if g <= opt.Slack {
			return t, true, nil
		}
	}
	return 0, false, ErrIterationBudget
}
