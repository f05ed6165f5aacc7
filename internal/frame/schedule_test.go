package frame

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// phaseBoundaries walks Algorithm 7 placed under a robot's frame and returns the global times at which the first maxN inactive phases
// begin, identified by their wait durations of 2·S(n)·τ.
func phaseBoundaries(t *testing.T, a Attributes, maxN int) []float64 {
	t.Helper()
	var (
		boundaries []float64
		elapsed    float64
		n          = 1
	)
	fr := a.Frame(geom.Zero)
	cur := trajectory.NewCursor(algo.Universal())
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		dur, _ := fr.DurationAndLength(&s)
		want := 2 * algo.SearchAllDuration(n) * a.Tau
		if isWait(s) && math.Abs(dur-want) <= 1e-9*want {
			boundaries = append(boundaries, elapsed)
			n++
			if n > maxN {
				return boundaries
			}
		}
		elapsed += dur
	}
	t.Fatalf("found only %d phase boundaries", len(boundaries))
	return nil
}

func isWait(s segment.Seg) bool {
	return s.Kind() == segment.KindWait
}

// TestScheduleScalesWithTau validates the premise of Lemmas 9-10: robot R′
// with clock unit τ starts its nth inactive phase at exactly τ·I(n) in
// global time.
func TestScheduleScalesWithTau(t *testing.T) {
	for _, tau := range []float64{0.5, 0.75, 2} {
		a := Attributes{V: 1, Tau: tau, Phi: 0, Chi: CCW}
		got := phaseBoundaries(t, a, 6)
		for n := 1; n <= 6; n++ {
			want := tau * bounds.InactiveStart(n)
			if math.Abs(got[n-1]-want) > 1e-9*math.Max(1, want) {
				t.Errorf("τ=%v: phase %d starts at %v, want τ·I(n) = %v",
					tau, n, got[n-1], want)
			}
		}
	}
}

// TestScheduleIndependentOfSpeedAndCompass validates the remark in the
// proof of Theorem 3: "the speed of a robot does not affect the times at
// which its active and inactive phases begin and/or end" — nor do the
// orientation or chirality.
func TestScheduleIndependentOfSpeedAndCompass(t *testing.T) {
	reference := phaseBoundaries(t, Reference(), 5)
	variants := []Attributes{
		{V: 0.3, Tau: 1, Phi: 0, Chi: CCW},
		{V: 2.5, Tau: 1, Phi: 0, Chi: CCW},
		{V: 1, Tau: 1, Phi: 2.2, Chi: CCW},
		{V: 0.7, Tau: 1, Phi: 1.1, Chi: CW},
	}
	for _, a := range variants {
		got := phaseBoundaries(t, a, 5)
		for n := range reference {
			if math.Abs(got[n]-reference[n]) > 1e-9*math.Max(1, reference[n]) {
				t.Errorf("%v: phase %d at %v, want %v (schedule must not depend on v/φ/χ)",
					a, n+1, got[n], reference[n])
			}
		}
	}
}
