package algo

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

func TestSearchRoundNoWaitDuration(t *testing.T) {
	// Without the final wait the round is shorter by exactly FinalWait(k).
	for k := 1; k <= 5; k++ {
		with := trajectory.Duration(SearchRound(k))
		without := trajectory.Duration(SearchRoundNoWait(k))
		if drift := with - without; !testutil.CloseEnoughTol(drift, FinalWait(k), 1e-9, 0) {
			t.Errorf("k=%d: drift %v, want FinalWait = %v", k, drift, FinalWait(k))
		}
	}
}

func TestSearchRoundNoWaitHasNoWaits(t *testing.T) {
	cur := trajectory.NewCursor(SearchRoundNoWait(2))
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if s.Kind() == segment.KindWait {
			t.Fatal("SearchRoundNoWait emitted a wait")
		}
	}
}

func TestUniversalNoRevSchedule(t *testing.T) {
	// Round n still lasts exactly 4·S(n): wait 2S + sweep S + wait S.
	var elapsed float64
	n := 1
	cur := trajectory.NewCursor(UniversalNoRev())
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		elapsed += s.Duration()
		if n == 3 {
			break
		}
		// Detect the start of the next round via the long wait.
		if w, ok := s.AsWait(); ok && w.Time == 2*SearchAllDuration(n+1) {
			want := 0.0
			for j := 1; j <= n; j++ {
				want += 4 * SearchAllDuration(j)
			}
			if !testutil.CloseEnoughTol(elapsed-w.Time, want, 1e-9, 1e-9) {
				t.Errorf("round %d boundary at %v, want %v", n, elapsed-w.Time, want)
			}
			n++
		}
	}
	if n < 3 {
		t.Errorf("observed only %d rounds", n)
	}
}

func TestUniversalNoInactiveHasNoLongWaits(t *testing.T) {
	var checked int
	cur := trajectory.NewCursor(UniversalNoInactive())
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		if w, ok := s.AsWait(); ok && w.At == geom.Zero {
			// Only the intra-round FinalWait waits are allowed, never the
			// 2S(n) inactive phases.
			for n := 1; n <= 6; n++ {
				if w.Time == 2*SearchAllDuration(n) {
					t.Fatalf("inactive phase of round %d present", n)
				}
			}
		}
		checked++
		if checked > 2000 {
			break
		}
	}
}

func TestStayNeverMoves(t *testing.T) {
	p := trajectory.NewPath(Stay(), nil)
	for _, tt := range []float64{0, 1, 1e6} {
		if got := p.Position(tt); got != geom.Zero {
			t.Errorf("Stay at t=%v: %v", tt, got)
		}
	}
}
