package line

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

func TestZigZagRoundDurations(t *testing.T) {
	for k := 0; k <= 8; k++ {
		got := trajectory.Duration(zigZagRound(k))
		if want := ZigZagRoundTime(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("round %d duration = %v, want %v", k, got, want)
		}
	}
	for n := 0; n <= 8; n++ {
		got := trajectory.Duration(SweepAll(n))
		if want := ZigZagPrefixTime(n); math.Abs(got-want) > 1e-9 {
			t.Errorf("SweepAll(%d) duration = %v, want %v", n, got, want)
		}
		gotRev := trajectory.Duration(SweepAllRev(n))
		if math.Abs(gotRev-got) > 1e-9 {
			t.Errorf("SweepAllRev(%d) duration = %v, want %v", n, gotRev, got)
		}
	}
}

func TestZigZagContinuity(t *testing.T) {
	if segs, gap := testutil.Segments(trajectory.Truncate(ZigZag(), 1000)); gap > 1e-12 || len(segs) == 0 {
		t.Errorf("gap=%v n=%d", gap, len(segs))
	}
	if _, gap := testutil.Segments(trajectory.Truncate(Universal(), 2000)); gap > 1e-12 {
		t.Errorf("Universal gap=%v", gap)
	}
}

func TestZigZagFindsTargetsBothSides(t *testing.T) {
	for _, x := range []float64{0.7, -0.7, 3.3, -3.3, 10, -10} {
		d := math.Abs(x)
		bound := SearchTimeBound(d)
		res, err := Search(ZigZag(), x, 0.01, sim.Options{Horizon: bound + 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Errorf("x=%v: not found within bound %v", x, bound)
			continue
		}
		if res.Time > bound {
			t.Errorf("x=%v: found at %v > bound %v", x, res.Time, bound)
		}
		// The doubling bound is within a constant of optimal: T ≤ 16d + 4.
		if res.Time > 16*d+4 {
			t.Errorf("x=%v: time %v exceeds 16d+4", x, res.Time)
		}
	}
}

func TestZigZagExactFirstContact(t *testing.T) {
	// Target at +5 with r = 0: zig-zag reaches +5 first during round 3
	// (reach 8). Time: rounds 0-2 take 4(1+2+4) = 28; then walk 5 more.
	res, err := Search(ZigZag(), 5, 1e-9, sim.Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("not found")
	}
	if want := 33.0; math.Abs(res.Time-want) > 1e-6 {
		t.Errorf("first contact at %v, want %v", res.Time, want)
	}
}

func TestFeasible(t *testing.T) {
	tests := []struct {
		a    Attributes
		want bool
	}{
		{Attributes{V: 1, Tau: 1, Dir: +1}, false},
		{Attributes{V: 0.5, Tau: 1, Dir: +1}, true},
		{Attributes{V: 1, Tau: 0.5, Dir: +1}, true},
		{Attributes{V: 1, Tau: 1, Dir: -1}, true}, // unlike the planar χ=−1 case!
	}
	for _, tt := range tests {
		if got := Feasible(tt.a); got != tt.want {
			t.Errorf("Feasible(%+v) = %v, want %v", tt.a, got, tt.want)
		}
	}
}

func TestOppositeDirectionsHeadOn(t *testing.T) {
	// Equal speeds and clocks but opposite directions: both robots walk
	// "positive" in their own frames, i.e. toward each other. They meet at
	// the midpoint during round 0 or shortly after: first contact when
	// 2t = d − r with both walking, t = (1 − 0.1)/2 = 0.45.
	in := Instance{Attrs: Attributes{V: 1, Tau: 1, Dir: -1}, D: 1, R: 0.1}
	res, err := Rendezvous(ZigZag(), in, sim.Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("opposite directions did not meet")
	}
	if want := 0.45; math.Abs(res.Time-want) > 1e-9 {
		t.Errorf("met at %v, want %v", res.Time, want)
	}
}

func TestUniversalLineAsymmetricClocks(t *testing.T) {
	for _, tau := range []float64{0.5, 0.75, 2} {
		in := Instance{Attrs: Attributes{V: 1, Tau: tau, Dir: +1}, D: 1, R: 0.1}
		res, err := Rendezvous(Universal(), in, sim.Options{Horizon: 1e5})
		if err != nil {
			t.Fatalf("τ=%v: %v", tau, err)
		}
		if !res.Met {
			t.Errorf("τ=%v: no meeting (gap %v)", tau, res.Gap)
		}
	}
}

func TestUniversalLineDifferentSpeeds(t *testing.T) {
	in := Instance{Attrs: Attributes{V: 0.5, Tau: 1, Dir: +1}, D: 1, R: 0.1}
	res, err := Rendezvous(Universal(), in, sim.Options{Horizon: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Errorf("v=0.5: no meeting (gap %v)", res.Gap)
	}
}

func TestIdenticalRobotsNeverMeetOnLine(t *testing.T) {
	in := Instance{Attrs: Attributes{V: 1, Tau: 1, Dir: +1}, D: 1, R: 0.1}
	for name, prog := range map[string]trajectory.Source{
		"zigzag":    ZigZag(),
		"universal": Universal(),
	} {
		res, err := Rendezvous(prog, in, sim.Options{Horizon: 5e3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Met {
			t.Errorf("%s: identical robots met at %v", name, res.Time)
		}
		if math.Abs(res.Gap-1) > 1e-9 {
			t.Errorf("%s: gap %v, want constant 1", name, res.Gap)
		}
	}
}

// TestPlaneVsLineContrast pins the headline difference with the planar
// Theorem 4: a pure direction/orientation flip is always enough on the
// line, but the planar mirror case (χ=−1, v=τ=1) is infeasible.
func TestPlaneVsLineContrast(t *testing.T) {
	lineIn := Instance{Attrs: Attributes{V: 1, Tau: 1, Dir: -1}, D: 1, R: 0.1}
	res, err := Rendezvous(Universal(), lineIn, sim.Options{Horizon: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Error("line: direction flip should always meet")
	}
}

func TestSearchTimeBoundMonotone(t *testing.T) {
	prev := 0.0
	for d := 0.5; d <= 64; d *= 2 {
		b := SearchTimeBound(d)
		if b < prev {
			t.Errorf("bound not monotone at d=%v: %v < %v", d, b, prev)
		}
		prev = b
	}
}
