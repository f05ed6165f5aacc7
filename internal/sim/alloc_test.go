package sim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/geom"
)

// Allocation ceilings for the rendezvous walks, counts only. Both are pinned
// above today's counts; a change that adds a heap allocation per walk, per
// lane or per segment must re-pin them here with its reason.
const (
	// rendezvousRefillAllocCeiling: the walk state holding both streams,
	// and each stream's program generator. Measures 3.
	rendezvousRefillAllocCeiling = 13
	// batchRowAllocCeiling: results and errors, the private tape with the
	// walk state, the tape's generator and its pages; nothing per lane.
	// Measures 10.
	batchRowAllocCeiling = 51
)

// refillInstance meets after 562 intervals, so both robots walk well past
// their first 64 segments; τ = 1/2 puts every arc pair on the fallback, not
// the equal-ω closed form.
var refillInstance = Instance{
	Attrs: frame.Attributes{V: 1, Tau: 0.5, Phi: 0.7, Chi: frame.CCW},
	D:     geom.V(3, 0),
	R:     0.1,
}

// fewestAllocs is the fewest heap allocations of f over several runs, with
// the collector off.
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
		t.Fatalf("met=%v intervals=%d err=%v: the instance must walk past 128 intervals", res.Met, res.Intervals, err)
	}
	allocs := fewestAllocs(func() {
		if _, err := Rendezvous(algo.CumulativeSearch(), refillInstance, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rendezvousRefillAllocCeiling {
		t.Errorf("Rendezvous past 128 intervals: %v allocs/run, ceiling %d", allocs, rendezvousRefillAllocCeiling)
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

// longWalkInstance is the v = 0.8, d = 2, r = 0.05 rendezvous under
// Algorithm 4: it meets at t ≈ 2759 after 2,074 intervals, so horizons
// below that walk a length proportional to the horizon.
var longWalkInstance = Instance{
	Attrs: frame.Attributes{V: 0.8, Tau: 1, Phi: 0, Chi: frame.CCW},
	D:     geom.V(2, 0),
	R:     0.05,
}

// fewestAllocsAndBytes is the fewest heap allocations and bytes of f over
// several runs, with the collector off.
func fewestAllocsAndBytes(f func()) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range 8 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestRendezvousLongWalkAllocGate: a scalar walk pulls its generators
// directly, so it allocates the same objects and bytes however far it
// walks. The two horizons walk about 700 and 1,900 intervals without
// meeting.
func TestRendezvousLongWalkAllocGate(t *testing.T) {
	walk := func(horizon float64) func() {
		return func() {
			res, err := Rendezvous(algo.CumulativeSearch(), longWalkInstance, Options{Horizon: horizon})
			if err != nil || res.Met {
				t.Fatalf("horizon %v: met=%v err=%v, want a walk to the horizon", horizon, res.Met, err)
			}
		}
	}
	shortAllocs, shortBytes := fewestAllocsAndBytes(walk(1000))
	longAllocs, longBytes := fewestAllocsAndBytes(walk(2500))
	if shortAllocs != longAllocs || shortBytes != longBytes {
		t.Errorf("walk allocations grow with length: %d allocs, %d B to t=1000; %d allocs, %d B to t=2500",
			shortAllocs, shortBytes, longAllocs, longBytes)
	}
}

// TestRendezvousTwinAllocGate: the twin walk of the E14/E16 control
// (v = 1, τ = 1, φ = 0, χ = +1, d = (1, 0), r = 0.25) pulls one program and
// allocates the same objects and bytes to the horizon 5e4 (404,220
// intervals) as to 2e5, four times as long.
func TestRendezvousTwinAllocGate(t *testing.T) {
	const long = 2e5
	in := Instance{Attrs: frame.Reference(), D: geom.V(1, 0), R: 0.25}
	walk := func(horizon float64) func() {
		return func() {
			res, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: horizon})
			if err != nil || res.Met {
				t.Fatalf("horizon %v: met=%v err=%v, want a walk to the horizon", horizon, res.Met, err)
			}
		}
	}
	shortAllocs, shortBytes := fewestAllocsAndBytes(walk(5e4))
	longAllocs, longBytes := fewestAllocsAndBytes(walk(long))
	if shortAllocs != longAllocs || shortBytes != longBytes {
		t.Errorf("twin walk allocations grow with length: %d allocs, %d B to t=5e4; %d allocs, %d B to t=%g",
			shortAllocs, shortBytes, longAllocs, longBytes, long)
	}
}
