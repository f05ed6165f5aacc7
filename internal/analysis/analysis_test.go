package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

func TestDistanceToLineSegment(t *testing.T) {
	l := segment.UnitLine(geom.V(0, 0), geom.V(2, 0)).Seg()
	tests := []struct {
		p    geom.Vec
		want float64
	}{
		{geom.V(1, 1), 1},      // above the middle
		{geom.V(-1, 0), 1},     // beyond the start
		{geom.V(3, 0), 1},      // beyond the end
		{geom.V(1, 0), 0},      // on the segment
		{geom.V(-3, 4), 5},     // diagonal to the start
		{geom.V(2, -0.5), 0.5}, // below the end
		{geom.V(0.5, -2), 2},   // below the middle
	}
	for _, tt := range tests {
		if got := DistanceToSegment(tt.p, l); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistanceToWait(t *testing.T) {
	w := segment.NewWait(geom.V(1, 1), 5).Seg()
	if got := DistanceToSegment(geom.V(4, 5), w); math.Abs(got-5) > 1e-12 {
		t.Errorf("dist = %v, want 5", got)
	}
}

func TestDistanceToFullCircle(t *testing.T) {
	a := segment.FullCircle(geom.Zero, 2, 0).Seg()
	tests := []struct {
		p    geom.Vec
		want float64
	}{
		{geom.V(3, 0), 1},
		{geom.V(0.5, 0), 1.5},
		{geom.Zero, 2},
		{geom.V(0, -2), 0},
	}
	for _, tt := range tests {
		if got := DistanceToSegment(tt.p, a); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistanceToPartialArc(t *testing.T) {
	// Quarter arc from angle 0 to π/2 on the unit circle.
	a := segment.NewArc(geom.Zero, 1, 0, math.Pi/2, 1).Seg()
	tests := []struct {
		p    geom.Vec
		want float64
	}{
		{geom.V(2, 0), 1},                 // radially aligned with the start
		{geom.Polar(3, math.Pi/4), 2},     // radially aligned inside the sweep
		{geom.V(0, -1), math.Sqrt2},       // opposite side: nearest endpoint (1,0)
		{geom.V(-2, 0), math.Sqrt(4 + 1)}, // nearest endpoint (0,1): dist = √5
	}
	for _, tt := range tests {
		if got := DistanceToSegment(tt.p, a); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistanceToClockwiseArc(t *testing.T) {
	// Clockwise quarter arc from angle 0 to −π/2.
	a := segment.NewArc(geom.Zero, 1, 0, -math.Pi/2, 1).Seg()
	// Point at angle −π/4 is inside the sweep.
	if got := DistanceToSegment(geom.Polar(2, -math.Pi/4), a); math.Abs(got-1) > 1e-9 {
		t.Errorf("dist inside sweep = %v, want 1", got)
	}
	// Point at angle +π/2 is outside: nearest endpoint is (1, 0) (start)
	// or (0,−1) (end); from (0,2): dist to (1,0) = √5, to (0,−1) = 3.
	if got := DistanceToSegment(geom.V(0, 2), a); math.Abs(got-math.Sqrt(5)) > 1e-9 {
		t.Errorf("dist outside sweep = %v, want √5", got)
	}
}

// TestDistanceToSegmentAgainstSampling cross-validates the closed forms on
// random points against dense sampling.
func TestDistanceToSegmentAgainstSampling(t *testing.T) {
	segs := []segment.Seg{
		segment.UnitLine(geom.V(-1, 2), geom.V(3, -1)).Seg(),
		segment.NewArc(geom.V(1, 1), 1.7, 0.4, 2.0, 1).Seg(),
		segment.NewArc(geom.V(-2, 0), 0.9, 1.0, -2.5, 1).Seg(),
		segment.FullCircle(geom.V(0.5, 0.5), 2.2, 1.1).Seg(),
	}
	f := func(px, py float64) bool {
		px = math.Mod(px, 8)
		py = math.Mod(py, 8)
		if math.IsNaN(px) || math.IsNaN(py) {
			return true
		}
		p := geom.V(px, py)
		for _, s := range segs {
			exact := DistanceToSegment(p, s)
			approx := sampledDistance(p, s)
			// Sampling overestimates by at most the chord spacing.
			if exact > approx+1e-9 || approx > exact+0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDistanceToTransformed: a time-dilated (speed-modulated) segment
// traces the same path as its payload.
func TestDistanceToTransformed(t *testing.T) {
	p := geom.V(1, 1)
	for _, raw := range []segment.Seg{
		segment.UnitLine(geom.V(0, 0), geom.V(2, 0)).Seg(),
		segment.NewArc(geom.V(1, 0), 1, 0, 2, 1).Seg(),
	} {
		dilated := raw.Dilated(1.5)
		if got, want := DistanceToSegment(p, dilated), sampledDistance(p, dilated); math.Abs(got-want) > 0.05 {
			t.Errorf("dilated %v dist = %v, sampled %v", raw.Kind(), got, want)
		}
		if got, want := DistanceToSegment(p, dilated), DistanceToSegment(p, raw); got != want {
			t.Errorf("dilated %v dist = %v, payload %v", raw.Kind(), got, want)
		}
	}
}

// coverReference is CoverAnnulus computed probe by probe: each probe takes
// the minimum DistanceToSegment over a fresh run of src, the way
// CoverAnnulus worked before it folded one pass into every probe.
func coverReference(src trajectory.Source, rIn, rOut, rho float64, radial, angular int) CoverageReport {
	var rep CoverageReport
	for i := 0; i <= radial; i++ {
		radius := rIn + (rOut-rIn)*float64(i)/float64(radial)
		for j := range angular {
			p := geom.Polar(radius, 2*math.Pi*float64(j)/float64(angular))
			d := math.Inf(1)
			cur := trajectory.NewCursor(src)
			for seg, ok := cur.Next(); ok; seg, ok = cur.Next() {
				if dd := DistanceToSegment(p, seg); dd < d {
					d = dd
				}
			}
			rep.Queries++
			if d <= rho {
				rep.Covered++
			}
			if d > rep.WorstGap {
				rep.WorstGap = d
				rep.WorstPoint = p
			}
		}
	}
	return rep
}

// coverChecked runs CoverAnnulus and fails unless its report equals
// coverReference's: the counts exactly, the worst gap and its point as
// math.Float64bits.
func coverChecked(t *testing.T, src trajectory.Source, rIn, rOut, rho float64, radial, angular int) CoverageReport {
	t.Helper()
	rep, err := CoverAnnulus(src, rIn, rOut, rho, radial, angular)
	if err != nil {
		t.Fatal(err)
	}
	want := coverReference(src, rIn, rOut, rho, radial, angular)
	bits := func(r CoverageReport) [3]uint64 {
		return [3]uint64{math.Float64bits(r.WorstGap), math.Float64bits(r.WorstPoint.X), math.Float64bits(r.WorstPoint.Y)}
	}
	if rep.Queries != want.Queries || rep.Covered != want.Covered || bits(rep) != bits(want) {
		t.Fatalf("one pass %+v, per-probe reference %+v", rep, want)
	}
	return rep
}

// TestSearchAnnulusCoverage is the empirical Lemma 1: SearchAnnulus brings
// the robot within ρ of every annulus point, also under a speed modulation,
// which changes when the path is traced but not where.
func TestSearchAnnulusCoverage(t *testing.T) {
	d1, d2, rho := 0.5, 1.0, 0.0625
	for name, src := range map[string]trajectory.Source{
		"plain":     algo.SearchAnnulus(d1, d2, rho),
		"modulated": trajectory.ModulateSpeed(algo.SearchAnnulus(d1, d2, rho), []float64{2, 0.5}),
	} {
		rep := coverChecked(t, src, d1, d2, rho, 12, 24)
		if !rep.FullyCovered() {
			t.Errorf("%s: annulus not covered: %d/%d, worst gap %v at %v",
				name, rep.Covered, rep.Queries, rep.WorstGap, rep.WorstPoint)
		}
	}
}

// TestSearchRoundCoverage checks each sub-round of Search(k) covers its
// designed annulus at its designed granularity (the invariant Lemma 1 uses),
// on this test's grid and on E12's.
func TestSearchRoundCoverage(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for j := 0; j <= 2*k-1; j++ {
			delta, rho := algo.RoundAnnulus(j, k)
			for _, grid := range [][2]int{{8, 16}, {10, 20}} {
				rep := coverChecked(t, algo.SearchRound(k), delta, 2*delta, rho, grid[0], grid[1])
				if !rep.FullyCovered() {
					t.Errorf("k=%d j=%d grid %v: annulus [%v, %v] at ρ=%v not covered (worst %v)",
						k, j, grid, delta, 2*delta, rho, rep.WorstGap)
				}
			}
		}
	}
}

// TestDistanceToPath checks the distance from a probe to a whole program:
// SearchCircle(1)'s path runs through the origin and passes 2 from (3, 0),
// so at ρ ≈ 0 the probes at radius 0 are covered, those at radius 3 are not.
func TestDistanceToPath(t *testing.T) {
	rep := coverChecked(t, algo.SearchCircle(1), 0, 3, 1e-12, 1, 8)
	if rep.Covered != 8 || math.Abs(rep.WorstGap-2) > 1e-12 {
		t.Errorf("covered %d of %d, worst gap %v; want 8 covered, worst gap 2", rep.Covered, rep.Queries, rep.WorstGap)
	}
}

func TestCoverAnnulusDetectsGaps(t *testing.T) {
	// A single circle cannot cover a wide annulus at fine granularity.
	rep := coverChecked(t, algo.SearchCircle(1), 0.5, 2, 0.01, 10, 16)
	if rep.FullyCovered() {
		t.Error("gap not detected")
	}
	if rep.WorstGap < 0.4 {
		t.Errorf("worst gap %v suspiciously small", rep.WorstGap)
	}

	// An empty program covers nothing: every probe is at +Inf, and the
	// first one is the worst.
	rep = coverChecked(t, trajectory.FromSlice(nil), 0.5, 1, 0.1, 2, 4)
	if rep.Covered != 0 || rep.Queries != 12 || !math.IsInf(rep.WorstGap, 1) || rep.WorstPoint != geom.Polar(0.5, 0) {
		t.Errorf("empty program: %+v, want 0 of 12 covered at +Inf from (0.5, 0)", rep)
	}

	// A robot waiting at the origin is exactly 2 from the outer probes at
	// angles 0 and π: of probes at an equal worst gap the first one wins.
	wait := segment.NewWait(geom.Zero, 1).Seg()
	if a, b := DistanceToSegment(geom.Polar(2, 0), wait), DistanceToSegment(geom.Polar(2, math.Pi), wait); a != b {
		t.Fatalf("no tie: %v vs %v", a, b)
	}
	rep = coverChecked(t, trajectory.FromSlice([]segment.Seg{wait}), 1, 2, 0.5, 1, 4)
	if rep.WorstGap != 2 || rep.WorstPoint != geom.Polar(2, 0) {
		t.Errorf("tie: worst gap %v at %v, want 2 at (2, 0)", rep.WorstGap, rep.WorstPoint)
	}
}

func TestCoverAnnulusValidation(t *testing.T) {
	src := algo.SearchCircle(1)
	if _, err := CoverAnnulus(src, 1, 0.5, 0.1, 4, 8); err == nil {
		t.Error("inverted radii accepted")
	}
	if _, err := CoverAnnulus(src, 0.5, 1, 0, 4, 8); err == nil {
		t.Error("zero rho accepted")
	}
	if _, err := CoverAnnulus(src, 0.5, 1, 0.1, 0, 8); err == nil {
		t.Error("coarse grid accepted")
	}
}

func TestCompetitiveRatio(t *testing.T) {
	if got := OfflineOptimumSearch(5, 1); got != 4 {
		t.Errorf("offline optimum = %v, want 4", got)
	}
	if got := OfflineOptimumSearch(1, 2); got != 0 {
		t.Errorf("visible target optimum = %v, want 0", got)
	}
	if got := CompetitiveRatio(40, 5, 1); math.Abs(got-10) > 1e-12 {
		t.Errorf("ratio = %v, want 10", got)
	}
	if !math.IsInf(CompetitiveRatio(40, 1, 2), 1) {
		t.Error("visible-target ratio should be +Inf")
	}
}

// sampledDistance approximates DistanceToSegment by dense sampling.
func sampledDistance(p geom.Vec, seg segment.Seg) float64 {
	const samples = 256
	d := math.Inf(1)
	dur := seg.Duration()
	for i := 0; i <= samples; i++ {
		q := seg.Position(dur * float64(i) / samples)
		if dd := p.Dist(q); dd < d {
			d = dd
		}
	}
	return d
}
