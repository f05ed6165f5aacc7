package rendezvous

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/sim"
)

// TestGridBatchSpeedupGate pins the batched SoA kernel's reason to exist:
// evaluating a whole grid row through one sim.SearchBatch call must return
// results that are bit-identical lane for lane to the scalar per-instance
// path (the deterministic half, always run), and must be decisively faster
// (measured ~8× at 64 lanes; the gate requires 3× to absorb CI noise). The
// wall-clock half runs under `make batchgate` (part of `make ci`), as the
// best of timingReps samples of at least minTimedWork each. A regression
// below the gate means the kernel stopped amortizing segment generation and
// the batch plumbing is dead weight.
func TestGridBatchSpeedupGate(t *testing.T) {
	targets, r, horizon := gridBenchWorkload()
	var lanes batch.Lanes
	for _, tgt := range targets {
		lanes.AddSearch(tgt, r, horizon)
	}

	scalarOnce := func(t *testing.T) []sim.Result {
		out := make([]sim.Result, len(targets))
		for i, tgt := range targets {
			res, err := Search(CumulativeSearch(), tgt, r, Options{Horizon: horizon})
			if err != nil || !res.Met {
				t.Fatalf("scalar lane %d: met=%v err=%v", i, res.Met, err)
			}
			out[i] = res
		}
		return out
	}
	batchOnce := func(t *testing.T) []sim.Result {
		results, errs := sim.SearchBatch(algo.CumulativeSearch(), &lanes, sim.Options{})
		for i := range results {
			if errs[i] != nil || !results[i].Met {
				t.Fatalf("batch lane %d: met=%v err=%v", i, results[i].Met, errs[i])
			}
		}
		return results
	}

	// The speedup is only interesting if the kernel computes the same
	// answers to the last bit.
	t.Run("bit-identity", func(t *testing.T) {
		want, got := scalarOnce(t), batchOnce(t)
		for i := range want {
			if want[i].Met != got[i].Met || want[i].Intervals != got[i].Intervals ||
				math.Float64bits(want[i].Time) != math.Float64bits(got[i].Time) ||
				math.Float64bits(want[i].Gap) != math.Float64bits(got[i].Gap) {
				t.Fatalf("lane %d diverges: scalar %+v, batch %+v", i, want[i], got[i])
			}
		}
	})

	t.Run("speedup", func(t *testing.T) {
		requireTimingGates(t)
		batchOnce(t) // warm up code paths once more before timing
		reps := repsFor(func() { batchOnce(t) })
		scalar := bestOf(func() {
			for range reps {
				scalarOnce(t)
			}
		})
		batched := bestOf(func() {
			for range reps {
				batchOnce(t)
			}
		})

		const minSpeedup = 3.0
		speedup := float64(scalar) / float64(batched)
		t.Logf("grid row of %d lanes ×%d: scalar %v, batch %v, speedup %.2fx", len(targets), reps, scalar, batched, speedup)
		if speedup < minSpeedup {
			t.Fatalf("batch kernel speedup %.2fx below the %.1fx gate (scalar %v, batch %v)",
				speedup, minSpeedup, scalar, batched)
		}
	})
}
