package rendezvous

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// timingGatesEnv is the opt-in for the wall-clock halves of the speedup
// gates. `make gate` and `make batchgate` (and through them `make ci`) set
// it to 1; plain `go test ./...` leaves it unset and runs only the
// deterministic halves — bit-identity and allocation ceilings — so the
// default suite passes on any machine, however throttled or shared.
const timingGatesEnv = "REPRO_TIMING_GATES"

// minTimedWork is the shortest workload a timed sample may measure: well
// above scheduler quanta and timer resolution, so best-of-N reflects the
// code rather than the machine's jitter.
const minTimedWork = 50 * time.Millisecond

// timingReps is N in the best-of-N timings: the minimum is the least noisy
// estimator of the true cost on a shared machine.
const timingReps = 5

// requireTimingGates skips a wall-clock subtest unless timingGatesEnv is set.
func requireTimingGates(t *testing.T) {
	t.Helper()
	if os.Getenv(timingGatesEnv) != "1" {
		t.Skipf("wall-clock gate: run via make gate / make batchgate (%s=1)", timingGatesEnv)
	}
	if testing.Short() {
		t.Skip("timing gate is meaningless under -short")
	}
}

// bestOf returns the fastest of timingReps wall-clock timings of f.
func bestOf(f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for range timingReps {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// repsFor returns how many back-to-back calls of f make one timed sample of
// at least minTimedWork, doubling from one call.
func repsFor(f func()) int {
	reps := 1
	for {
		start := time.Now()
		for range reps {
			f()
		}
		if time.Since(start) >= minTimedWork {
			return reps
		}
		reps *= 2
	}
}

// quotaCPUs returns the CPU bandwidth the cgroup grants, in CPUs: cgroup v2
// cpu.max ("quota period"), else cgroup v1 cpu.cfs_quota_us over
// cpu.cfs_period_us. It returns 0 when no quota is set or neither file is
// readable. GOMAXPROCS counts the CPUs the scheduler may use; the quota
// bounds how much of them a throttled container actually gets.
func quotaCPUs() float64 {
	ratio := func(quota, period string) float64 {
		q, err1 := strconv.ParseFloat(strings.TrimSpace(quota), 64)
		p, err2 := strconv.ParseFloat(strings.TrimSpace(period), 64)
		if err1 != nil || err2 != nil || q <= 0 || p <= 0 {
			return 0
		}
		return q / p
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			return ratio(f[0], f[1]) // "max" (no quota) fails to parse → 0
		}
		return 0
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 != nil || err2 != nil {
		return 0
	}
	return ratio(string(q), string(p))
}

// parallelCores is the number of whole CPUs a parallel sweep can use:
// GOMAXPROCS, capped by the cgroup CPU quota when one is set.
func parallelCores() int {
	cores := runtime.GOMAXPROCS(0)
	if q := quotaCPUs(); q > 0 && int(q) < cores {
		cores = int(q)
	}
	return cores
}

// The gate grid: the BenchmarkSweepWorkers* instances.
var (
	gateVs    = []float64{0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
	gatePhis  = []float64{math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi}
	gateCells = len(gateVs) * len(gatePhis)
)

// gateSweep runs n instances of the gate grid (cycling through its cells)
// on the sweep engine with the given worker count and returns the meeting
// times.
func gateSweep(t *testing.T, n, workers int) []float64 {
	t.Helper()
	times, err := sweep.Run(n, func(i int, _ *rand.Rand) (float64, error) {
		c := i % gateCells
		in := Instance{
			Attrs: Attributes{V: gateVs[c/len(gatePhis)], Tau: 1, Phi: gatePhis[c%len(gatePhis)], Chi: CCW},
			D:     XY(1, 0),
			R:     0.25,
		}
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e5})
		if err != nil {
			return 0, err
		}
		return res.Time, nil
	}, sweep.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return times
}

// TestSweepWorkersGate is the multi-core performance gate wired into
// `make ci`. Its deterministic half always runs: a sweep fanned out over
// every core returns bit-identical results to the serial sweep. Its
// wall-clock half runs under `make gate`: on a multi-core runner the
// CPU-bound sweep workload must speed up when fanned out, ≥2× with three or
// more cores. On two cores perfect scaling is exactly 2×, so the bar drops
// to 1.6× to leave room for scheduler noise; single-CPU runners skip (the
// latency-bound concurrency proof lives in internal/sweep). Cores are
// counted after the cgroup CPU quota (see parallelCores), and each timed
// sample is the best of timingReps runs of a workload of at least
// minTimedWork.
func TestSweepWorkersGate(t *testing.T) {
	t.Run("bit-identity", func(t *testing.T) {
		serial, parallel := gateSweep(t, gateCells, 1), gateSweep(t, gateCells, 0)
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
				t.Fatalf("job %d: serial %v, parallel %v", i, serial[i], parallel[i])
			}
		}
	})
	t.Run("speedup", func(t *testing.T) {
		requireTimingGates(t)
		cores := parallelCores()
		if cores < 2 {
			t.Skipf("%d usable CPU (GOMAXPROCS %d, cgroup quota %.2f): CPU-bound speedup is unobservable",
				cores, runtime.GOMAXPROCS(0), quotaCPUs())
		}
		gateSweep(t, gateCells, 0) // warm up code paths before timing
		n := gateCells * repsFor(func() { gateSweep(t, gateCells, 1) })
		serial := bestOf(func() { gateSweep(t, n, 1) })
		parallel := bestOf(func() { gateSweep(t, n, cores) })
		required := 2.0
		if cores == 2 {
			required = 1.6
		}
		speedup := float64(serial) / float64(parallel)
		t.Logf("%d jobs: serial %v, %d workers %v: %.2fx speedup (gate %.1fx)", n, serial, cores, parallel, speedup, required)
		if speedup < required {
			t.Errorf("parallel sweep speedup %.2fx below the %.1fx gate on %d cores", speedup, required, cores)
		}
	})
}
