package sim

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/geom"
)

// Allocation ceilings for the rendezvous walks, counts only. Both are pinned
// at the counts measured before the walks applied frames at placement (the
// scalar walk now measures 6); a change that adds a heap allocation per
// walk, per lane or per cursor refill must re-pin them here with its reason.
const (
	// rendezvousRefillAllocCeiling: the walk state holding both streams,
	// and each cursor's collector closure and doubled refill windows.
	rendezvousRefillAllocCeiling = 13
	// batchRowAllocCeiling: results and errors, and the tape's cursor and
	// growing segment, duration and length slices; nothing per lane.
	batchRowAllocCeiling = 51
)

// refillInstance meets after 562 intervals: both robots walk well past the
// cursor's first 64-segment window, so the refill path runs; τ = 1/2 puts
// every arc pair on the fallback, not the equal-ω closed form.
var refillInstance = Instance{
	Attrs: frame.Attributes{V: 1, Tau: 0.5, Phi: 0.7, Chi: frame.CCW},
	D:     geom.V(3, 0),
	R:     0.1,
}

// fewestAllocs is the fewest heap allocations of f over several runs, with
// the collector off: a collection empties sync.Pool, and under the race
// detector sync.Pool also drops a random quarter of its puts, so a single
// run may reallocate a pooled cursor window.
func fewestAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := math.Inf(1)
	for range 8 {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

func TestRendezvousRefillAllocGate(t *testing.T) {
	opt := Options{Horizon: 1e4}
	res, err := Rendezvous(algo.CumulativeSearch(), refillInstance, opt)
	if err != nil || !res.Met || res.Intervals <= 2*64 {
		t.Fatalf("met=%v intervals=%d err=%v: the instance must walk past the first cursor window", res.Met, res.Intervals, err)
	}
	allocs := fewestAllocs(func() {
		if _, err := Rendezvous(algo.CumulativeSearch(), refillInstance, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rendezvousRefillAllocCeiling {
		t.Errorf("Rendezvous with cursor refills: %v allocs/run, ceiling %d", allocs, rendezvousRefillAllocCeiling)
	}
}

func TestRendezvousBatchRowAllocGate(t *testing.T) {
	var ln batch.Lanes
	for k := 0; k < 64; k++ {
		attrs := refillInstance.Attrs
		attrs.Phi = 2 * math.Pi * float64(k) / 64
		ln.AddRendezvous(attrs, geom.Polar(3, attrs.Phi+0.2), refillInstance.R, 1e3)
	}
	allocs := fewestAllocs(func() {
		RendezvousBatch(algo.CumulativeSearch(), &ln, Options{})
	})
	if allocs > batchRowAllocCeiling {
		t.Errorf("64-lane RendezvousBatch row: %v allocs/run, ceiling %d", allocs, batchRowAllocCeiling)
	}
}
