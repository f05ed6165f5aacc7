package motion

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// sane clamps fuzz inputs into a numerically reasonable range.
func sane(x, lim float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	return math.Mod(x, lim), true
}

// FuzzLinearLinear cross-validates the closed-form linear-linear detector
// against the brute-force reference on random configurations.
func FuzzLinearLinear(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 10.0, 0.25, -1.0, 0.0, 0.5)
	f.Add(-3.0, 2.0, 0.7, -0.4, 4.0, -1.0, -0.5, 0.3, 0.8)
	f.Fuzz(func(t *testing.T, ax, ay, avx, avy, bx, by, bvx, bvy, r float64) {
		vals := []*float64{&ax, &ay, &avx, &avy, &bx, &by, &bvx, &bvy}
		for _, p := range vals {
			v, ok := sane(*p, 20)
			if !ok {
				return
			}
			*p = v
		}
		rr, ok := sane(r, 3)
		if !ok || math.Abs(rr) < 1e-3 {
			return
		}
		rr = math.Abs(rr)

		a := Linear{P0: geom.V(ax, ay), Vel: geom.V(avx, avy)}
		b := Linear{P0: geom.V(bx, by), Vel: geom.V(bvx, bvy)}
		const t1 = 30.0
		got, found, err := FirstContact(a, b, rr, 0, t1, DefaultOptions(rr))
		if err != nil {
			t.Fatal(err)
		}
		want, wantFound := referenceFirstContact(a, b, rr, 0, t1, 300000)
		if found != wantFound {
			// The reference's finite grid can miss grazing contacts the
			// closed form resolves; only a closed-form *miss* against a
			// reference *hit* is a bug.
			if !found && wantFound {
				t.Fatalf("closed form missed a contact the reference found at %v", want)
			}
			return
		}
		if found && math.Abs(got-want) > 2e-3*(1+want) {
			t.Fatalf("contact at %v, reference %v", got, want)
		}
	})
}

// FuzzCircularStatic cross-validates the arc-vs-static closed form.
func FuzzCircularStatic(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 0.3, 0.7, 3.0, 1.0, 0.6)
	f.Add(1.0, -1.0, 1.5, 2.0, -1.3, -1.4, -1.0, 0.4)
	f.Fuzz(func(t *testing.T, cx, cy, radius, theta0, omega, px, py, r float64) {
		vals := []*float64{&cx, &cy, &theta0, &px, &py}
		for _, p := range vals {
			v, ok := sane(*p, 10)
			if !ok {
				return
			}
			*p = v
		}
		rad, ok := sane(radius, 5)
		if !ok {
			return
		}
		rad = math.Abs(rad)
		om, ok := sane(omega, 4)
		if !ok || math.Abs(om) < 1e-3 {
			return
		}
		rr, ok := sane(r, 3)
		if !ok || math.Abs(rr) < 1e-3 {
			return
		}
		rr = math.Abs(rr)

		c := Circular{Center: geom.V(cx, cy), Radius: rad, Theta0: theta0, Omega: om}
		p := Static(geom.V(px, py))
		const t1 = 40.0
		got, found, err := FirstContact(c, p, rr, 0, t1, DefaultOptions(rr))
		if err != nil {
			t.Fatal(err)
		}
		want, wantFound := referenceFirstContact(c, p, rr, 0, t1, 400000)
		if found != wantFound {
			if !found && wantFound {
				t.Fatalf("closed form missed a contact the reference found at %v", want)
			}
			return
		}
		if found && math.Abs(got-want) > 2e-3*(1+want) {
			t.Fatalf("contact at %v, reference %v", got, want)
		}
	})
}

// FuzzEqualOmegaContact differentially checks the equal-ω arc×arc closed
// form in Contact against the safe-advance fallback it replaced, run on the
// same movers. Pairs where the fallback exhausts its budget (long grazing
// approaches) are skipped. The checks:
//
//   - found agrees with the fallback;
//   - the closed-form t is ≤ the fallback's t: the fallback converges on
//     the crossing of r + Slack from below and can only stop at or after it;
//   - the gap at the closed-form t is ≤ r + Slack.
//
// Rounding tolerance: tol = 1e-12·(1 + |Cₐ−C_b| + Rₐ + R_b + r), two
// orders above the largest excess a 100k-case random differential showed
// (3.6e-13 at scale ~45). Only a rounding-level graze may break the first
// two checks: a fallback hit whose exact gap lies within tol of r + Slack,
// or a relative orbit whose closest approach does. One further case is not
// a disagreement: the fallback advances by the gap to r, not to r + Slack,
// so its last step can jump from before the crossing to past t1. Rerun
// without the t1 cut-off, it must then land after t1 on the same approach.
func FuzzEqualOmegaContact(f *testing.F) {
	f.Add(-2.0, 0.0, 1.0, math.Pi, 2.0, 0.0, 1.0, 3.0, 3.0, 1.0, 2.5, 0.5, 40.0)
	f.Add(0.0, 3.0, 2.0, math.Pi/2, 0.0, -1.0, 0.5, math.Pi/2, 0.0, -0.7, 2.75, 1.0, 20.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 0.1, 0.0, 1.0, 0.05, 0.0, 2.0, 0.3, 0.0, 10.0)
	f.Add(-5.0, 0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 30.0)
	f.Fuzz(func(t *testing.T, acx, acy, ar, ath, bcx, bcy, br, bth, bT0, omega, r, t0, span float64) {
		for _, p := range []*float64{&acx, &acy, &ath, &bcx, &bcy, &bth, &bT0, &t0} {
			v, ok := sane(*p, 10)
			if !ok {
				return
			}
			*p = v
		}
		for _, p := range []*float64{&ar, &br, &span} {
			v, ok := sane(*p, 5)
			if !ok {
				return
			}
			*p = math.Abs(v)
		}
		span *= 8 // intervals up to 40 time units
		om, ok := sane(omega, 4)
		if !ok || math.Abs(om) < 1e-3 {
			return
		}
		rr, ok := sane(r, 3)
		if !ok || math.Abs(rr) < 1e-3 {
			return
		}
		rr = math.Abs(rr)

		a := Circular{Center: geom.V(acx, acy), Radius: ar, Theta0: ath, Omega: om}
		b := Circular{T0: bT0, Center: geom.V(bcx, bcy), Radius: br, Theta0: bth, Omega: om}
		ma, mb := circularMover(a), circularMover(b)
		opt := DefaultOptions(rr)
		opt.MaxIters = 1_000_000
		t1 := t0 + span
		got, found, err := Contact(&ma, &mb, rr, t0, t1, opt)
		if err != nil {
			t.Fatalf("closed form returned %v", err)
		}
		want, wantFound, err := conservative(&ma, &mb, rr, t0, t1, opt)
		if err != nil {
			return // fallback budget exhausted: no reference answer
		}

		thr := rr + opt.Slack
		tol := 1e-12 * (1 + a.Center.Dist(b.Center) + ar + br + rr)
		gap := func(x float64) float64 { return a.At(x).Dist(b.At(x)) }
		k := geom.Polar(ar, a.Theta0+om*(t0-a.T0)).Sub(geom.Polar(br, b.Theta0+om*(t0-b.T0)))
		closest := math.Abs(a.Center.Dist(b.Center) - k.Norm())
		grazing := math.Abs(closest-thr) <= tol

		switch {
		case found && wantFound:
			if got > want && gap(want) < thr-tol {
				t.Fatalf("closed form t=%v after fallback t=%v (fallback gap %v, threshold %v)", got, want, gap(want), thr)
			}
		case wantFound:
			if gap(want) < thr-tol && !grazing {
				t.Fatalf("closed form missed the fallback's contact at %v (gap %v, threshold %v)", want, gap(want), thr)
			}
		case found:
			if late, lateFound, err := conservative(&ma, &mb, rr, t0, math.Inf(1), opt); err == nil && lateFound && late > t1 {
				break // the fallback's last step overshot t1
			}
			if !grazing {
				t.Fatalf("closed form found contact at %v in [%v, %v], fallback found none", got, t0, t1)
			}
		}
		if found && gap(got) > thr+tol {
			t.Fatalf("gap %v at closed-form t=%v exceeds r+Slack=%v by more than %v", gap(got), got, thr, tol)
		}
	})
}
