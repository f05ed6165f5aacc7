package sim

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

// theoremOneBound is 6(π+1)·log₂(x)·x with x = d²/r (Theorem 1).
func theoremOneBound(d, r float64) float64 {
	x := d * d / r
	return 6 * (math.Pi + 1) * math.Log2(x) * x
}

func TestSearchExactContactTime(t *testing.T) {
	// Target at (1,0), r = 1/4. Round 1, sub-round 0 searches the annulus
	// [1/2, 1] at ρ(0,1) = 1/16, i.e. circles of radii 1/2, 5/8, 3/4, ...
	// The first two circles stay ≥ 3/8 away; the circle of radius 3/4
	// passes at distance exactly 1/4 from the target, and contact happens
	// the moment the robot reaches (3/4, 0) on its outbound line:
	// t = 2(π+1)·(1/2 + 5/8) + 3/4.
	res, err := Search(algo.CumulativeSearch(), geom.V(1, 0), 0.25, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("target not found")
	}
	want := 2*(math.Pi+1)*(0.5+0.625) + 0.75
	if !testutil.CloseEnoughTol(res.Time, want, 1e-9, 0) {
		t.Errorf("contact at %v, want %v", res.Time, want)
	}
	if res.Gap > 0.25+1e-9 {
		t.Errorf("gap at contact = %v > r", res.Gap)
	}
}

func TestSearchRespectsTheoremOneBound(t *testing.T) {
	// Theorem 1: Algorithm 4 finds any target in time
	// < 6(π+1)·log(d²/r)·(d²/r). Sweep distances, radii, and directions.
	for _, d := range []float64{0.5, 1, 2} {
		for _, r := range []float64{0.125, 0.25} {
			for i := range 8 {
				angle := 2 * math.Pi * float64(i) / 8
				target := geom.Polar(d, angle)
				// The bound is vacuous when d²/r ≤ 1 (log ≤ 0); pad the
				// horizon so those instances still resolve.
				bound := theoremOneBound(d, r)
				res, err := Search(algo.CumulativeSearch(), target, r, Options{Horizon: 2*bound + 500})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Met {
					t.Fatalf("d=%v r=%v angle=%v: not found within horizon", d, r, angle)
				}
				if bound > 0 && res.Time > bound {
					t.Errorf("d=%v r=%v angle=%v: time %v exceeds bound %v", d, r, angle, res.Time, bound)
				}
			}
		}
	}
}

func TestSearchFoundByScheduledRound(t *testing.T) {
	// Lemma 1 exhibits a round k ≈ ⌊log₂(d²/r)⌋ whose annuli are guaranteed
	// to reveal the target; the simulated discovery round must not exceed it
	// (discovery may be earlier — a generous r lets coarser rounds succeed,
	// which only improves the Theorem 1 bound; the instance-wise converse,
	// Lemma 3, is a worst-case tool inside the proof, not an invariant).
	prefix := func(k int) float64 { // duration of rounds 1..k (Lemma 2)
		return 3 * (math.Pi + 1) * float64(k) * math.Ldexp(1, k+2)
	}
	for _, c := range []struct{ d, r float64 }{
		{1, 0.25}, {0.5, 0.25}, {2, 0.125}, {1.5, 0.0625}, {0.75, 0.03125},
	} {
		res, err := Search(algo.CumulativeSearch(), geom.Polar(c.d, 0.9), c.r,
			Options{Horizon: 2*theoremOneBound(c.d, c.r) + 500})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatalf("d=%v r=%v: not found", c.d, c.r)
		}
		kFound := 1
		for prefix(kFound) < res.Time {
			kFound++
		}
		kSched := int(math.Floor(math.Log2(c.d*c.d/c.r))) + 1 // +1: rounds start at 1
		if kFound > kSched {
			t.Errorf("d=%v r=%v: found in round %d, later than scheduled round %d",
				c.d, c.r, kFound, kSched)
		}
	}
}

func TestRendezvousDifferentSpeeds(t *testing.T) {
	// Theorem 2, χ = +1, φ = 0, v = 1/2: μ = 1/2 and the rendezvous time is
	// bounded by 6(π+1)·log(d²/(μr))·d²/(μr).
	in := Instance{
		Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	mu := in.Attrs.Mu()
	bound := theoremOneBound(1, mu*in.R) // d²/(μr) via d²/r with r → μr
	res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 2 * bound})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("robots with different speeds did not meet")
	}
	if res.Time > bound {
		t.Errorf("rendezvous at %v exceeds Theorem 2 bound %v", res.Time, bound)
	}
}

func TestRendezvousDifferentOrientations(t *testing.T) {
	// Theorem 2, χ = +1, v = 1, φ = π: μ = 2. Equal speeds and clocks meet
	// because their compasses disagree.
	in := Instance{
		Attrs: frame.Attributes{V: 1, Tau: 1, Phi: math.Pi, Chi: frame.CCW},
		D:     geom.V(0.7, 0.7),
		R:     0.25,
	}
	bound := theoremOneBound(in.D.Norm(), in.Attrs.Mu()*in.R)
	res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 2 * bound})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("robots with opposite orientations did not meet")
	}
	if res.Time > bound {
		t.Errorf("rendezvous at %v exceeds bound %v", res.Time, bound)
	}
}

func TestRendezvousOppositeChirality(t *testing.T) {
	// Theorem 2, χ = −1, v = 1/2: feasible with bound factor 1/(1−v).
	in := Instance{
		Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 1.1, Chi: frame.CW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	bound := theoremOneBound(1, (1-in.Attrs.V)*in.R)
	res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 2 * bound})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("opposite-chirality robots with different speeds did not meet")
	}
	if res.Time > bound {
		t.Errorf("rendezvous at %v exceeds Theorem 2 bound %v", res.Time, bound)
	}
}

func TestRendezvousInfeasibleIdenticalRobots(t *testing.T) {
	// v = 1, τ = 1, φ = 0, χ = +1: T∘ = 0, the robots stay exactly d apart
	// forever regardless of the algorithm.
	in := Instance{
		Attrs: frame.Reference(),
		D:     geom.V(1, 0),
		R:     0.25,
	}
	res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("identical robots met at t=%v", res.Time)
	}
	if !testutil.CloseEnough(res.Gap, 1) {
		t.Errorf("gap at horizon = %v, want exactly d = 1", res.Gap)
	}
}

func TestRendezvousInfeasibleOppositeChiralityEqualSpeed(t *testing.T) {
	// Theorem 4: χ = −1 with v = 1, τ = 1 is infeasible for every φ. The
	// matrix T∘ is singular; its range is a line, and an adversarial d off
	// that line keeps the robots apart forever. For φ = π/2 the range is
	// span{(1, −1)}, so d ∝ (1, 1) is adversarial.
	in := Instance{
		Attrs: frame.Attributes{V: 1, Tau: 1, Phi: math.Pi / 2, Chi: frame.CW},
		D:     geom.V(1, 1),
		R:     0.25,
	}
	res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("infeasible instance met at t=%v", res.Time)
	}
}

func TestUniversalAsymmetricClocks(t *testing.T) {
	// Theorem 3: Algorithm 7 solves rendezvous whenever τ ≠ 1, even with
	// equal speeds, aligned compasses, equal chiralities.
	for _, tau := range []float64{0.5, 0.6, 2.0} {
		in := Instance{
			Attrs: frame.Attributes{V: 1, Tau: tau, Phi: 0, Chi: frame.CCW},
			D:     geom.V(1, 0),
			R:     0.25,
		}
		res, err := Rendezvous(algo.Universal(), in, Options{Horizon: 2e5})
		if err != nil {
			t.Fatalf("tau=%v: %v", tau, err)
		}
		if !res.Met {
			t.Fatalf("tau=%v: robots with asymmetric clocks did not meet (gap %v)", tau, res.Gap)
		}
	}
}

func TestUniversalDifferentSpeeds(t *testing.T) {
	// Theorem 4: Algorithm 7 also solves the v ≠ 1 case (universality: the
	// robots need not know which attribute differs).
	in := Instance{
		Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	res, err := Rendezvous(algo.Universal(), in, Options{Horizon: 2e5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("universal algorithm failed for v=0.5 (gap %v)", res.Gap)
	}
}

func TestUniversalInfeasibleSymmetric(t *testing.T) {
	in := Instance{Attrs: frame.Reference(), D: geom.V(1, 0), R: 0.25}
	res, err := Rendezvous(algo.Universal(), in, Options{Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("symmetric robots met under Algorithm 7 at t=%v", res.Time)
	}
}

// TestRendezvousEqualsEquivalentSearch validates the reduction of Section 3:
// for χ = +1, τ = 1, the rendezvous time of Algorithm 4 equals the search
// time of the same algorithm against target Φ⁻¹·d/μ with visibility r/μ,
// where Φ is the rotation of Lemma 5.
func TestRendezvousEqualsEquivalentSearch(t *testing.T) {
	v, phi := 0.6, 1.3
	d := geom.V(1.1, -0.4)
	r := 0.2

	in := Instance{
		Attrs: frame.Attributes{V: v, Tau: 1, Phi: phi, Chi: frame.CCW},
		D:     d,
		R:     r,
	}
	mu := geom.Mu(v, phi)
	qr, ok := geom.LemmaFiveQR(v, phi, +1)
	if !ok {
		t.Fatal("degenerate QR")
	}
	// Φ⁻¹ = Φᵀ for a rotation.
	target := qr.Q.Transpose().Apply(d).Scale(1 / mu)

	horizon := 2 * theoremOneBound(d.Norm(), mu*r)
	rvz, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	srch, err := Search(algo.CumulativeSearch(), target, r/mu, Options{Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if !rvz.Met || !srch.Met {
		t.Fatalf("met: rendezvous=%v search=%v", rvz.Met, srch.Met)
	}
	if !testutil.CloseEnough(rvz.Time, srch.Time) {
		t.Errorf("rendezvous time %v != equivalent search time %v", rvz.Time, srch.Time)
	}
}

// TestRelativeTrajectoryMatchesTCirc samples S(t) − S′(t) and compares with
// T∘·S(t) (Lemma 4 / Definition 1, before rotation).
func TestRelativeTrajectoryMatchesTCirc(t *testing.T) {
	v, phi, chi := 0.7, 2.1, frame.CW
	d := geom.V(0.4, 0.9)
	attrs := frame.Attributes{V: v, Tau: 1, Phi: phi, Chi: chi}

	ra := trajectory.NewPath(algo.CumulativeSearch(), &referenceFrame)
	fb := attrs.Frame(d)
	rb := trajectory.NewPath(algo.CumulativeSearch(), &fb)
	local := trajectory.NewPath(algo.CumulativeSearch(), nil)

	tcirc := geom.EquivalentSearchMatrix(v, phi, int(chi))
	for i := 1; i <= 100; i++ {
		tt := float64(i) * 0.37
		want := tcirc.Apply(local.Position(tt)).Sub(d)
		got := ra.Position(tt).Sub(rb.Position(tt))
		if !got.ApproxEqual(want, 1e-9) {
			t.Fatalf("t=%v: S−S′ = %v, want T∘S − d = %v", tt, got, want)
		}
	}
}

func TestBaselineKnownVisibility(t *testing.T) {
	r := 0.25
	res, err := Search(algo.KnownVisibilitySearch(r), geom.Polar(2, 2.3), r, Options{Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("known-visibility baseline failed to find target")
	}
	// Time should be O(d²/r) without a log factor: generous constant check.
	if res.Time > 8*(math.Pi+1)*4/r {
		t.Errorf("baseline time %v unexpectedly large", res.Time)
	}
}

func TestBaselineFixedPitchMisses(t *testing.T) {
	// Pitch 1 sweeps circles at radii 1, 2, 3...; a target at radius 1.5
	// with r = 0.2 is never approached closer than 0.5.
	res, err := Search(algo.FixedPitchSweep(1), geom.Polar(1.5, 0.4), 0.2, Options{Horizon: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Errorf("fixed-pitch sweep found an unreachable target at t=%v", res.Time)
	}
}

func TestBaselineExpandingRings(t *testing.T) {
	// Rings at 1, 2, 4, 8: a target at distance 5 is found iff r covers the
	// gap to radius 4 (or 8).
	hit, err := Search(algo.ExpandingRings(), geom.Polar(5, 1.0), 1.5, Options{Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Met {
		t.Error("expanding rings missed a coarse target")
	}
	miss, err := Search(algo.ExpandingRings(), geom.Polar(5, 1.0), 0.1, Options{Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Met {
		t.Error("expanding rings found a fine target it should miss")
	}
}

func TestOptionsValidation(t *testing.T) {
	_, err := Search(algo.CumulativeSearch(), geom.V(1, 0), 0.25, Options{})
	if err == nil {
		t.Error("zero horizon accepted")
	}
	_, err = Search(algo.CumulativeSearch(), geom.V(1, 0), 0, Options{Horizon: 10})
	if err == nil {
		t.Error("zero radius accepted")
	}
}

func TestInstanceValidation(t *testing.T) {
	good := Instance{Attrs: frame.Reference(), D: geom.V(1, 0), R: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []Instance{
		{Attrs: frame.Attributes{V: 0, Tau: 1, Chi: frame.CCW}, D: geom.V(1, 0), R: 0.1},
		{Attrs: frame.Reference(), D: geom.V(1, 0), R: 0},
		{Attrs: frame.Reference(), D: geom.Vec{}, R: 0.1},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestRendezvousAsymmetricWaitingPeer(t *testing.T) {
	// If R′ just waits (cheating: not a symmetric algorithm), Algorithm 4
	// reduces to plain search and must find it.
	in := Instance{Attrs: frame.Reference(), D: geom.V(1, 0), R: 0.25}
	res, err := RendezvousAsymmetric(algo.CumulativeSearch(), algo.Stay(), in, Options{Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("searching robot failed to find a waiting peer")
	}
	want := 2*(math.Pi+1)*(0.5+0.625) + 0.75 // same instant as TestSearchExactContactTime
	if !testutil.CloseEnoughTol(res.Time, want, 1e-9, 0) {
		t.Errorf("contact at %v, want %v", res.Time, want)
	}
}

func TestOdometerSearch(t *testing.T) {
	// Meeting happens before the first wait of Search(1), so the unit-speed
	// robot's distance equals the elapsed time, and the static target's is 0.
	res, err := Search(algo.CumulativeSearch(), geom.V(1, 0), 0.25, Options{Horizon: 100})
	if err != nil || !res.Met {
		t.Fatalf("met=%v err=%v", res.Met, err)
	}
	if !testutil.CloseEnoughTol(res.DistanceA, res.Time, 1e-9, 0) {
		t.Errorf("DistanceA = %v, want = time %v (unit speed, no waits yet)", res.DistanceA, res.Time)
	}
	if res.DistanceB != 0 {
		t.Errorf("DistanceB = %v, want 0 (static target)", res.DistanceB)
	}
}

func TestOdometerSpeedScaling(t *testing.T) {
	// R′ at half speed: until its first wait its distance is v·t.
	in := Instance{
		Attrs: frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 1000})
	if err != nil || !res.Met {
		t.Fatalf("met=%v err=%v", res.Met, err)
	}
	// Subtract any wait time each robot has spent (Search(k) ends with a
	// wait); easiest robust check: distances are positive, bounded by
	// speed × time, and R′'s is at most half of R's bound.
	if res.DistanceA <= 0 || res.DistanceA > res.Time+1e-9 {
		t.Errorf("DistanceA = %v outside (0, %v]", res.DistanceA, res.Time)
	}
	if res.DistanceB <= 0 || res.DistanceB > 0.5*res.Time+1e-9 {
		t.Errorf("DistanceB = %v outside (0, %v]", res.DistanceB, 0.5*res.Time)
	}
}

func TestOdometerCountsWaitsAsZero(t *testing.T) {
	// Under Algorithm 7 the robots spend half their schedule waiting; the
	// travelled distance must be strictly less than elapsed time.
	in := Instance{
		Attrs: frame.Attributes{V: 1, Tau: 0.5, Phi: 0, Chi: frame.CCW},
		D:     geom.V(1, 0),
		R:     0.25,
	}
	res, err := Rendezvous(algo.Universal(), in, Options{Horizon: 1e5})
	if err != nil || !res.Met {
		t.Fatalf("met=%v err=%v", res.Met, err)
	}
	if res.DistanceA >= res.Time {
		t.Errorf("DistanceA = %v not less than time %v despite inactive phases", res.DistanceA, res.Time)
	}
	if res.DistanceB >= res.Time {
		t.Errorf("DistanceB = %v not less than time %v despite inactive phases", res.DistanceB, res.Time)
	}
}

func TestResultString(t *testing.T) {
	if s := (Result{}).String(); s == "" {
		t.Error("empty string for zero result")
	}
	if s := (Result{Met: true, Time: 3}).String(); s == "" {
		t.Error("empty string for met result")
	}
}
