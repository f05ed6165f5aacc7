package algo

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

// searchCircleDuration is the Lemma 2 closed form 2(π+1)δ.
func searchCircleDuration(delta float64) float64 {
	return 2 * (math.Pi + 1) * delta
}

// searchAnnulusDuration is the Lemma 2 closed form
// 2(π+1)(1+m)(δ1+ρm) with m = ⌈(δ2−δ1)/(2ρ)⌉.
func searchAnnulusDuration(delta1, delta2, rho float64) float64 {
	m := float64(AnnulusCircleCount(delta1, delta2, rho))
	return 2 * (math.Pi + 1) * (1 + m) * (delta1 + rho*m)
}

// searchRoundDuration is the Lemma 2 closed form 3(π+1)(k+1)·2^(k+1).
func searchRoundDuration(k int) float64 {
	return 3 * (math.Pi + 1) * float64(k+1) * math.Ldexp(1, k+1)
}

// cumulativePrefixDuration is the Lemma 2 closed form 3(π+1)k·2^(k+2) for
// the first k rounds of Algorithm 4.
func cumulativePrefixDuration(k int) float64 {
	return 3 * (math.Pi + 1) * float64(k) * math.Ldexp(1, k+2)
}

func relClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	if !testutil.CloseEnoughTol(got, want, 1e-9, 1e-9) {
		t.Errorf("%s = %v, want %v (rel err %v)", name, got, want, math.Abs(got-want)/want)
	}
}

func TestSearchCircleDuration(t *testing.T) {
	for _, delta := range []float64{0.01, 0.5, 1, 2.75, 100} {
		got := trajectory.Duration(SearchCircle(delta))
		relClose(t, "SearchCircle duration", got, searchCircleDuration(delta))
	}
}

func TestSearchCircleShape(t *testing.T) {
	segs, gap := testutil.Segments(SearchCircle(2))
	if len(segs) != 3 {
		t.Fatalf("SearchCircle has %d segments, want 3", len(segs))
	}
	if segs[0].Start() != geom.Zero || segs[2].End() != geom.Zero {
		t.Error("SearchCircle must start and end at the origin")
	}
	arc, ok := segs[1].AsArc()
	if !ok {
		t.Fatalf("middle segment is %T, want Arc", segs[1])
	}
	if arc.Radius != 2 || math.Abs(arc.Sweep-2*math.Pi) > 1e-12 {
		t.Errorf("arc radius/sweep = %v/%v, want 2/2π", arc.Radius, arc.Sweep)
	}
	if gap > 1e-12 {
		t.Errorf("continuity gap = %v", gap)
	}
}

func TestSearchAnnulusDuration(t *testing.T) {
	cases := []struct{ d1, d2, rho float64 }{
		{0.5, 1, 0.125},
		{1, 2, 0.03125},
		{0, 1, 0.25}, // inner radius 0 allowed by the paper (δ1 ≥ 0)
		{2, 4, 1},
		{0.25, 0.5, 0.0078125},
	}
	for _, c := range cases {
		got := trajectory.Duration(SearchAnnulus(c.d1, c.d2, c.rho))
		relClose(t, "SearchAnnulus duration", got, searchAnnulusDuration(c.d1, c.d2, c.rho))
	}
}

func TestSearchAnnulusCoversRadii(t *testing.T) {
	// Every radius in [δ1, δ2] must be within ρ of some traversed circle.
	d1, d2, rho := 0.5, 1.0, 0.0625
	var circles []float64
	cur := trajectory.NewCursor(SearchAnnulus(d1, d2, rho))
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if arc, ok := s.AsArc(); ok {
			circles = append(circles, arc.Radius)
		}
	}
	for q := d1; q <= d2; q += (d2 - d1) / 1000 {
		best := math.Inf(1)
		for _, c := range circles {
			if gap := math.Abs(c - q); gap < best {
				best = gap
			}
		}
		if best > rho {
			t.Fatalf("radius %v is %v from nearest circle, want <= ρ = %v", q, best, rho)
		}
	}
}

func TestRoundAnnulusInvariant(t *testing.T) {
	// The paper chooses δ(j,k), ρ(j,k) so that δ²/ρ = 2^(k+1) (Lemma 3).
	for k := 1; k <= 10; k++ {
		for j := 0; j <= 2*k-1; j++ {
			delta, rho := RoundAnnulus(j, k)
			got := delta * delta / rho
			want := math.Ldexp(1, k+1)
			if !testutil.CloseEnoughTol(got, want, 1e-9, 1e-9) {
				t.Errorf("k=%d j=%d: δ²/ρ = %v, want 2^(k+1) = %v", k, j, got, want)
			}
		}
	}
}

func TestSearchRoundDuration(t *testing.T) {
	for k := 1; k <= 7; k++ {
		got := trajectory.Duration(SearchRound(k))
		relClose(t, "Search(k) duration", got, searchRoundDuration(k))
	}
}

func TestSearchRoundEndsAtOriginWithWait(t *testing.T) {
	segs, gap := testutil.Segments(SearchRound(2))
	last, ok := segs[len(segs)-1].AsWait()
	if !ok {
		t.Fatalf("last segment is %T, want Wait", segs[len(segs)-1])
	}
	if last.At != geom.Zero {
		t.Errorf("final wait at %v, want origin", last.At)
	}
	relClose(t, "final wait", last.Time, FinalWait(2))
	if gap > 1e-12 {
		t.Errorf("continuity gap = %v", gap)
	}
}

func TestCumulativeSearchPrefixDurations(t *testing.T) {
	// Lemma 2: the first k rounds of Algorithm 4 take 3(π+1)k·2^(k+2).
	for k := 1; k <= 6; k++ {
		var got float64
		for j := 1; j <= k; j++ {
			got += trajectory.Duration(SearchRound(j))
		}
		relClose(t, "Algorithm 4 prefix", got, cumulativePrefixDuration(k))
	}
}

func TestCumulativeSearchIsInfiniteAndContinuous(t *testing.T) {
	var (
		n       int
		prevEnd geom.Vec
		first   = true
	)
	cur := trajectory.NewCursor(CumulativeSearch())
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if !first && s.Start().Dist(prevEnd) > 1e-12 {
			t.Fatalf("discontinuity at segment %d", n)
		}
		prevEnd = s.End()
		first = false
		n++
		if n >= 500 {
			break
		}
	}
	if n != 500 {
		t.Errorf("consumed %d segments, want 500", n)
	}
}

func TestSearchAllDuration(t *testing.T) {
	// S(n) = 12(π+1)·n·2^n must equal both the simulated duration and the
	// sum of round durations.
	for n := 1; n <= 6; n++ {
		got := trajectory.Duration(SearchAll(n))
		relClose(t, "SearchAll duration", got, SearchAllDuration(n))
		gotRev := trajectory.Duration(SearchAllRev(n))
		relClose(t, "SearchAllRev duration", gotRev, SearchAllDuration(n))
	}
}

func TestSearchAllRevIsReversedOrder(t *testing.T) {
	// The first arc of SearchAllRev(n) must belong to Search(n): its radius
	// is δ(0,n) = 2^(−n); the first arc of SearchAll(n) has radius 2^(−1).
	firstArcRadius := func(src trajectory.Source) float64 {
		cur := trajectory.NewCursor(src)
		for s, ok := cur.Next(); ok; s, ok = cur.Next() {
			if arc, ok := s.AsArc(); ok {
				return arc.Radius
			}
		}
		return math.NaN()
	}
	n := 4
	if got := firstArcRadius(SearchAll(n)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SearchAll first radius = %v, want 0.5", got)
	}
	if got, want := firstArcRadius(SearchAllRev(n)), math.Ldexp(1, -n); math.Abs(got-want) > 1e-12 {
		t.Errorf("SearchAllRev first radius = %v, want %v", got, want)
	}
}

func TestUniversalRoundStructure(t *testing.T) {
	// Round n of Algorithm 7 lasts 4S(n): inactive 2S(n) + active 2S(n).
	// Verify for the first three rounds by walking the stream.
	var (
		elapsed  float64
		boundary []float64
	)
	wantRounds := 3
	next := 1
	cur := trajectory.NewCursor(Universal())
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if w, ok := s.AsWait(); ok && w.Time == 2*SearchAllDuration(next) && w.At == geom.Zero {
			boundary = append(boundary, elapsed)
			next++
		}
		elapsed += s.Duration()
		if len(boundary) > wantRounds {
			break
		}
	}
	if len(boundary) <= wantRounds {
		t.Fatalf("found %d round boundaries, want > %d", len(boundary), wantRounds)
	}
	for n := 1; n <= wantRounds; n++ {
		roundLen := boundary[n] - boundary[n-1]
		relClose(t, "round length", roundLen, 4*SearchAllDuration(n))
	}
}

func TestBaselinesAreInfinite(t *testing.T) {
	for name, src := range map[string]trajectory.Source{
		"known-visibility": KnownVisibilitySearch(0.25),
		"fixed-pitch":      FixedPitchSweep(0.5),
		"expanding-rings":  ExpandingRings(),
	} {
		n := 0
		cur := trajectory.NewCursor(src)
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			n++
			if n >= 50 {
				break
			}
		}
		if n != 50 {
			t.Errorf("%s: consumed %d segments, want 50", name, n)
		}
		if _, gap := testutil.Segments(trajectory.Truncate(src, 1e3)); gap > 1e-12 {
			t.Errorf("%s: continuity gap %v", name, gap)
		}
	}
}

func TestKnownVisibilityRadii(t *testing.T) {
	var radii []float64
	cur := trajectory.NewCursor(KnownVisibilitySearch(0.5))
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if arc, ok := s.AsArc(); ok {
			radii = append(radii, arc.Radius)
			if len(radii) == 4 {
				break
			}
		}
	}
	want := []float64{0.5, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(radii[i]-want[i]) > 1e-12 {
			t.Errorf("circle %d radius = %v, want %v", i, radii[i], want[i])
		}
	}
}

func TestExpandingRingsRadii(t *testing.T) {
	var radii []float64
	cur := trajectory.NewCursor(ExpandingRings())
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if arc, ok := s.AsArc(); ok {
			radii = append(radii, arc.Radius)
			if len(radii) == 5 {
				break
			}
		}
	}
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if radii[i] != want[i] {
			t.Errorf("ring %d radius = %v, want %v", i, radii[i], want[i])
		}
	}
}

// TestExpandingRingsPastRing64 pulls 70 rings, past ring 64 whose radius
// 2^63 no longer fits an int64: every radius stays positive and doubles.
func TestExpandingRingsPastRing64(t *testing.T) {
	cur := trajectory.NewCursor(ExpandingRings())
	prev := 0.5
	rings := 0
	for cur.Consumed() < 3*70 {
		s, _, _, ok := cur.Pull()
		if !ok {
			t.Fatalf("the program ended after %d segments", cur.Consumed())
		}
		if arc, ok := s.AsArc(); ok {
			if rings++; !(arc.Radius > 0) || arc.Radius != 2*prev {
				t.Fatalf("ring %d radius = %v after %v, want it doubled", rings, arc.Radius, prev)
			}
			prev = arc.Radius
		}
	}
	if rings <= 64 {
		t.Fatalf("pulled %d rings, want more than 64", rings)
	}
}

func TestBaselinePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"known-visibility": func() { KnownVisibilitySearch(0) },
		"fixed-pitch":      func() { FixedPitchSweep(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}
