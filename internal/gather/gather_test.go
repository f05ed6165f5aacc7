package gather

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
)

func robot(v, tau, phi float64, chi frame.Chirality, x, y float64) Robot {
	return Robot{
		Attrs:  frame.Attributes{V: v, Tau: tau, Phi: phi, Chi: chi},
		Origin: geom.V(x, y),
	}
}

func TestValidate(t *testing.T) {
	good := Instance{
		Robots: []Robot{robot(1, 1, 0, frame.CCW, 0, 0), robot(0.5, 1, 0, frame.CCW, 1, 0)},
		R:      0.25,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []Instance{
		{Robots: []Robot{robot(1, 1, 0, frame.CCW, 0, 0)}, R: 0.25},
		{Robots: good.Robots, R: 0},
		{Robots: []Robot{robot(1, 1, 0, frame.CCW, 0, 0), robot(1, 1, 0, frame.CCW, 0, 0)}, R: 0.25},
		{Robots: []Robot{robot(0, 1, 0, frame.CCW, 0, 0), robot(1, 1, 0, frame.CCW, 1, 0)}, R: 0.25},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestRelative(t *testing.T) {
	a := frame.Attributes{V: 2, Tau: 4, Phi: 1, Chi: frame.CCW}
	b := frame.Attributes{V: 1, Tau: 2, Phi: 1.5, Chi: frame.CW}
	rel := Relative(a, b)
	if rel.V != 0.5 || rel.Tau != 0.5 {
		t.Errorf("relative v/τ = %v/%v, want 0.5/0.5", rel.V, rel.Tau)
	}
	if math.Abs(rel.Phi-0.5) > 1e-12 {
		t.Errorf("relative φ = %v, want 0.5", rel.Phi)
	}
	if rel.Chi != frame.CW {
		t.Errorf("relative χ = %v, want cw", rel.Chi)
	}
	// Identical attributes → the identity frame.
	id := Relative(b, b)
	if id.V != 1 || id.Tau != 1 || id.NormPhi() != 0 || id.Chi != frame.CCW {
		t.Errorf("self-relative = %v, want reference", id)
	}
	// Mirror observer: φ flips sign.
	ma := frame.Attributes{V: 1, Tau: 1, Phi: 0, Chi: frame.CW}
	mb := frame.Attributes{V: 1, Tau: 1, Phi: 0.7, Chi: frame.CW}
	if rel := Relative(ma, mb); math.Abs(rel.Phi+0.7) > 1e-12 || rel.Chi != frame.CCW {
		t.Errorf("mirror-frame relative = %v, want φ=-0.7 χ=ccw", rel)
	}
}

// TestRelativeConsistentWithTwoRobotSim checks that simulating a pair with
// raw global attributes equals simulating with robot i as reference and the
// Relative attributes for j — validating the frame algebra.
func TestRelativeConsistentWithTwoRobotSim(t *testing.T) {
	a := frame.Attributes{V: 2, Tau: 1, Phi: 0.5, Chi: frame.CCW}
	b := frame.Attributes{V: 1, Tau: 1, Phi: 1.5, Chi: frame.CCW}
	oa, ob := geom.V(0, 0), geom.V(1.5, 0)
	r := 0.3
	opt := sim.Options{Horizon: 2e4}

	raw, err := sim.FirstMeetingFramed(algo.CumulativeSearch(), a.Frame(oa),
		algo.CumulativeSearch(), b.Frame(ob), r, opt)
	if err != nil {
		t.Fatal(err)
	}
	// In robot a's frame: a is the reference (unit speed/clock), b has the
	// Relative attributes; distances and times shrink by a's units.
	rel := Relative(a, b)
	du := a.DistanceUnit()
	dLocal := geom.Rotation(-a.Phi).Apply(ob.Sub(oa)).Scale(1 / du)
	if a.Chi == frame.CW {
		dLocal = geom.ReflectionY().Apply(dLocal)
	}
	local, err := sim.Rendezvous(algo.CumulativeSearch(),
		sim.Instance{Attrs: rel, D: dLocal, R: r / du},
		sim.Options{Horizon: opt.Horizon / a.Tau})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Met != local.Met {
		t.Fatalf("met mismatch: raw=%v local=%v", raw.Met, local.Met)
	}
	if raw.Met {
		// Times scale by a's clock unit.
		if math.Abs(raw.Time-local.Time*a.Tau) > 1e-6*math.Max(1, raw.Time) {
			t.Errorf("raw time %v != local time × τ_a = %v", raw.Time, local.Time*a.Tau)
		}
	}
}

func TestAllPairsFeasible(t *testing.T) {
	distinct := []Robot{
		robot(1, 1, 0, frame.CCW, 0, 0),
		robot(0.5, 1, 0, frame.CCW, 1, 0),
		robot(0.25, 1, 0, frame.CCW, 0, 1),
	}
	if !AllPairsFeasible(distinct) {
		t.Error("distinct speeds must be pairwise feasible")
	}
	twins := []Robot{
		robot(1, 1, 0, frame.CCW, 0, 0),
		robot(0.5, 1, 0, frame.CCW, 1, 0),
		robot(1, 1, 0, frame.CCW, 0, 1), // same as robot 0
	}
	if AllPairsFeasible(twins) {
		t.Error("twin robots must make a pair infeasible")
	}
	// Mirror twins with a rotation: infeasible pair (Theorem 4).
	mirrorPair := []Robot{
		robot(1, 1, 0, frame.CCW, 0, 0),
		robot(1, 1, 1.0, frame.CW, 1, 0),
	}
	if AllPairsFeasible(mirrorPair) {
		t.Error("mirror pair with equal speed/clock must be infeasible")
	}
}

func TestThreeRobotPairwiseMeetings(t *testing.T) {
	in := Instance{
		Robots: []Robot{
			robot(1, 1, 0, frame.CCW, 0, 0),
			robot(0.5, 1, 0, frame.CCW, 1, 0),
			robot(0.75, 1, 0, frame.CCW, 0, 1),
		},
		R: 0.25,
	}
	if !AllPairsFeasible(in.Robots) {
		t.Fatal("instance should be pairwise feasible")
	}
	res, err := Simulate(algo.CumulativeSearch(), in, Options{Horizon: 2e4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("got %d pairs, want 3", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if !p.Met {
			t.Errorf("pair (%d,%d) never met (gap %v)", p.I, p.J, p.Gap)
		}
	}
}

func TestGatheringDetection(t *testing.T) {
	// A contrived always-gathered case: robots so close that the diameter
	// is already ≤ R at t = 0.
	in := Instance{
		Robots: []Robot{
			robot(1, 1, 0, frame.CCW, 0, 0),
			robot(0.5, 1, 0, frame.CCW, 0.05, 0),
			robot(0.75, 1, 0, frame.CCW, 0, 0.05),
		},
		R: 0.25,
	}
	res, err := Simulate(algo.CumulativeSearch(), in, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Gathered || res.GatherTime != 0 {
		t.Errorf("pre-gathered instance: Gathered=%v at %v, want true at 0", res.Gathered, res.GatherTime)
	}
}

func TestGatheringTwoRobotsMatchesRendezvous(t *testing.T) {
	// For n = 2 the gathering time must equal the two-robot rendezvous
	// time (diameter = pair distance).
	attrs := frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW}
	in := Instance{
		Robots: []Robot{robot(1, 1, 0, frame.CCW, 0, 0), {Attrs: attrs, Origin: geom.V(1, 0)}},
		R:      0.25,
	}
	res, err := Simulate(algo.CumulativeSearch(), in, Options{Horizon: 2e3})
	if err != nil {
		t.Fatal(err)
	}
	two, err := sim.Rendezvous(algo.CumulativeSearch(),
		sim.Instance{Attrs: attrs, D: geom.V(1, 0), R: 0.25}, sim.Options{Horizon: 2e3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Gathered || !two.Met {
		t.Fatalf("gathered=%v met=%v", res.Gathered, two.Met)
	}
	if math.Abs(res.GatherTime-two.Time) > 1e-5*math.Max(1, two.Time) {
		t.Errorf("gather time %v != rendezvous time %v", res.GatherTime, two.Time)
	}
	if p := res.Pairs[0]; !p.Met || math.Abs(p.Time-two.Time) > 1e-9 {
		t.Errorf("pair result %v inconsistent with rendezvous %v", p.Result, two)
	}
}

func TestGatheringNeverForSymmetricTriple(t *testing.T) {
	// Three identical robots: no pair can meet, so no gathering either.
	in := Instance{
		Robots: []Robot{
			robot(1, 1, 0, frame.CCW, 0, 0),
			robot(1, 1, 0, frame.CCW, 1, 0),
			robot(1, 1, 0, frame.CCW, 0, 1),
		},
		R: 0.25,
	}
	res, err := Simulate(algo.CumulativeSearch(), in, Options{Horizon: 2e3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gathered {
		t.Errorf("symmetric triple gathered at %v", res.GatherTime)
	}
	for _, p := range res.Pairs {
		if p.Met {
			t.Errorf("symmetric pair (%d,%d) met", p.I, p.J)
		}
	}
	if res.DiameterAtHorizon < 1 {
		t.Errorf("diameter at horizon %v < initial spacing", res.DiameterAtHorizon)
	}
}

func TestSimulateOptionValidation(t *testing.T) {
	in := Instance{
		Robots: []Robot{robot(1, 1, 0, frame.CCW, 0, 0), robot(0.5, 1, 0, frame.CCW, 1, 0)},
		R:      0.25,
	}
	if _, err := Simulate(algo.CumulativeSearch(), in, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}
}
