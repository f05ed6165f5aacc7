package algo

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// TestUniversalPhaseStartMatchesStreamWalk pins the replay contract: the
// folded phase start times must be bit-identical to the values a cumulative
// walk of the real Universal() stream observes (the measurement E5
// originally performed). Any divergence — a changed constructor, a
// reordered addition — breaks the byte-stability of E5's tables.
func TestUniversalPhaseStartMatchesStreamWalk(t *testing.T) {
	const maxN = 7 // the walk is O(4ⁿ) segments; 7 keeps the test quick
	wantI := make([]float64, maxN+1)
	wantA := make([]float64, maxN+1)
	elapsed := 0.0
	n := 1
	cur := trajectory.NewCursor(Universal())
	for seg, ok := cur.Next(); ok; seg, ok = cur.Next() {
		if w, ok := seg.AsWait(); ok && w.At == geom.Zero && w.Time == 2*SearchAllDuration(n) {
			wantI[n] = elapsed
			wantA[n] = elapsed + w.Time
			n++
			if n > maxN {
				break
			}
		}
		elapsed += seg.Duration()
	}
	if n <= maxN {
		t.Fatalf("stream walk found only %d rounds", n-1)
	}
	for k := 1; k <= maxN; k++ {
		gotI, gotA := UniversalPhaseStart(k)
		if gotI != wantI[k] {
			t.Errorf("round %d: replayed I(n) = %v, stream walk = %v (must be bit-identical)", k, gotI, wantI[k])
		}
		if gotA != wantA[k] {
			t.Errorf("round %d: replayed A(n) = %v, stream walk = %v (must be bit-identical)", k, gotA, wantA[k])
		}
	}
}
