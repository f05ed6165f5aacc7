package rendezvous

import (
	"testing"
)

// Allocation-ceiling gates for the simulator hot paths. BENCH_sim.json
// tracks the trajectory across PRs, but these gates fail `go test ./...` on
// any machine the moment a change re-introduces per-segment boxing or
// cursor allocations, without needing a benchmark run.
//
// The ceilings are the PR-5 acceptance numbers (≤10 allocs per simulated
// instance). Measured: 3 for rendezvous, from one walk-state struct and two
// cursor collector closures (the walk applies the frames at placement, so
// the two frame-transform closures it once needed are gone), and 3 for
// search.
// They are deliberately exact, not relative: a regression to even 15
// allocs/op means a hot-path structure changed and must be justified by
// re-pinning the number here.
const (
	rendezvousAllocCeiling = 10
	searchAllocCeiling     = 10
)

func TestRendezvousHotAllocGate(t *testing.T) {
	in := Instance{
		Attrs: Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	// Warm the cursor buffer pool so the gate measures steady state.
	if res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e4}); err != nil || !res.Met {
		t.Fatalf("warmup: met=%v err=%v", res.Met, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e4})
		if err != nil || !res.Met {
			t.Fatalf("met=%v err=%v", res.Met, err)
		}
	})
	if avg > rendezvousAllocCeiling {
		t.Errorf("Rendezvous hot path: %.1f allocs/run, ceiling %d", avg, rendezvousAllocCeiling)
	}
}

func TestSearchHotAllocGate(t *testing.T) {
	target := Polar(2, 0.9)
	if res, err := Search(CumulativeSearch(), target, 0.01, Options{Horizon: 1e6}); err != nil || !res.Met {
		t.Fatalf("warmup: met=%v err=%v", res.Met, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		res, err := Search(CumulativeSearch(), target, 0.01, Options{Horizon: 1e6})
		if err != nil || !res.Met {
			t.Fatalf("met=%v err=%v", res.Met, err)
		}
	})
	if avg > searchAllocCeiling {
		t.Errorf("Search hot path: %.1f allocs/run, ceiling %d", avg, searchAllocCeiling)
	}
}
