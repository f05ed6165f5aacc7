package sim

import (
	"math"

	"repro/internal/trajectory"
)

// twinK is the constant k of the twin walk's rounding margin
// k·u·(L + |T_A| + |T_B| + |ΔT|); the proof at twinWalk needs about 200.
const twinK = 1024

// twinWalk is meet's fast path for twins: two robots that run one program
// under frames fa and fb whose linear parts and clocks are bit-equal
// (segment.Frame.Twin). Theorem 4's infeasible case v = 1, τ = 1, φ = 0,
// χ = +1 is one, and so is every gather pair with equal attributes. Twins
// place each segment with bit-equal start times, durations and lengths, so
// their intervals are whole segments, and their placed positions differ by
// ΔT = T_B − T_A up to rounding: they never meet while |ΔT| clears the
// contact radius by a rounding margin. While it does, the walk pulls sa
// alone, scales and updates the odometer, and counts the interval exactly
// like the full loop, but places no segment and tests no contact; sb is
// not started. It hands over to the full loop at the same t, before the
// interval is counted, on a modulated segment, at the end of the program,
// or once the margin fails; done is false then. At the horizon it places
// both robots' current segment once and fills Gap and the distances as
// the full loop would, and reports done.
//
// Margin. Write u = 2^−53, r′ = r + Slack and, for the current segment,
// L = ‖M‖·Seg.Reach: a bound on |M·q| over its points and its arc's
// center. (The path length walked so far would not do: it bounds neither
// an arc's center nor the points of a program that jumps.)
// The walk skips the interval while
//
//	|ΔT| > r′ + k·u·(L + |T_A| + |T_B| + |ΔT|),  k = twinK.
//
// Claim: motion.Contact, as the full loop calls it on the interval, finds
// no contact. Proof sketch, barring underflow and overflow. Let
// E = 2L + |T_A| + |T_B| + |ΔT|. The exact placed positions (under the
// stored M) satisfy B(t) − A(t) = ΔT. The interval is [t0, t1] with t0 the
// segment's start T0 bit for bit and S = t1 − t0 ≤ its duration. Both
// movers have one kind, and arcs share radius and ω bit for bit, so Contact
// runs linearHit or equalOmega, which never iterate or fail. A placed
// point fl(M·q + T_X) is within 5u(L + |T_X|) of M·q + T_X.
//
//   - Lines and waits. At(t0) is P0 exactly, so linearHit's
//     p0 = fl(P0_A − P0_B) is within 6uE of −ΔT. The computed velocities
//     carry 3.1u relative error on endpoint differences of at most 2L
//     (plus rounding), so the computed relative motion p0 + w·s moves by at
//     most |w|·S ≤ η = 25uE over the interval. Once |p0| − r > 56uE,
//     c = |p0|² − r² computes positive within 11 %, and both roots share
//     the sign of c/qa. The smaller one is c/q with |q| ≤ (1+4u)·|qb| and
//     |qb| ≤ (1+3u)·2|p0||w|, so |s| ≥ 0.89·(|p0| − r)/(2|w|) > S: no
//     root lies in the interval. If qa = 0 the gap is constant and > r.
//   - Arcs. equalOmega's relative circle has center D within 6uE of
//     C_A − C_B's exact value ±ΔT, and radius R = |K|, the chord between
//     the two start directions. Those are the angles of start − center
//     vectors within 12u(L + |T_X|) of one vector of length ρ′ ≤ L, so
//     R ≤ 4·12u(2L + |T_A| + |T_B|) + 6uL ≤ 61uE. arcHit reports
//     no contact when its rhs = (r′² − d² − R²)/(2Rd) rounds below −1,
//     which holds once d − R − r′ > 20u·d; when R = 0 it compares |D|
//     with r′ directly. Both hold once |ΔT| − r′ > 90uE.
//
// Both cases hold once |ΔT| − r′ > 100uE ≤ 200u·(L + |T_A| + |T_B| + |ΔT|).
// k = 1024 leaves room for the rounding of the test itself. The margin is
// a relative 1.1e−13 of the scene, so on the paper's programs the twin walk
// runs to the horizon. The walk's segments come from sa, under sa's frame:
// DistanceB is DistanceA because both robots scale every segment by
// bit-equal factors; FuzzTwinMatchesFullWalk asserts it against the full
// walk, and takeOver checks it at every hand-over.
func twinWalk(sa, sb *stream, res *Result, rs float64, opt Options) (t float64, done bool, err error) {
	ta, tb := sa.fr.Translation(), sb.fr.Translation()
	dt := tb.Sub(ta).Norm()
	// The margin holds for a segment while L = ‖M‖·Seg.Reach < lmax, that
	// is while Seg.Reach < rmax, up to rounding that k covers.
	lmax := (dt-rs)/(twinK*0x1p-53) - (ta.Norm() + tb.Norm() + dt)
	rmax := lmax / sa.fr.Norm()
	for t < opt.Horizon {
		if opt.Ctx != nil {
			if err := pollCtx(opt.Ctx, res.Intervals); err != nil {
				return t, false, err
			}
		}
		sa.advanceTo(t)
		if !sa.has || sa.seg.Modulated() || !(sa.seg.Reach() < rmax) {
			return t, false, nil
		}
		sa.odo.observe(sa.start, sa.segDur, sa.segLen)
		res.Intervals++
		t = min(opt.Horizon, sa.start+sa.segDur) // math.Min, inlined
	}
	sa.mov.SetFramed(sa.seg, &sa.fr, sa.start, sa.segDur)
	sb.mov.SetFramed(sa.seg, &sb.fr, sa.start, sa.segDur)
	res.Gap = sa.mov.At(opt.Horizon).Dist(sb.mov.At(opt.Horizon))
	res.DistanceA = sa.odo.at(opt.Horizon)
	res.DistanceB = res.DistanceA
	return t, true, nil
}

// takeOver begins sb, sa's twin, on program where the twin walk stopped: it
// pulls sb to sa's place — the segments sa has pulled, and the end of the
// program if sa has reached it — and gives it sa's odometer. It panics if
// the two streams' start times, durations or lengths then differ in any
// bit, which would break the twin walk's DistanceB = DistanceA.
func takeOver(sa, sb *stream, program trajectory.Source) {
	sb.begin(program)
	for sb.n < sa.n {
		sb.next()
	}
	if sb.has && !sa.has {
		sb.next()
	}
	if sb.has != sa.has || sb.n != sa.n ||
		math.Float64bits(sb.start) != math.Float64bits(sa.start) ||
		math.Float64bits(sb.segDur) != math.Float64bits(sa.segDur) ||
		math.Float64bits(sb.segLen) != math.Float64bits(sa.segLen) {
		panic("sim: twin streams diverged")
	}
	sb.odo = sa.odo
}
