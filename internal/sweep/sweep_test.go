package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sampler"
)

// TestRunDeterministicAcrossWorkerCounts is the engine's core contract:
// the same jobs with the same base seed produce bit-identical results for
// every worker count, including the Monte-Carlo (rng-consuming) path.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	job := func(i int, d sampler.Draws) (float64, error) {
		// Consume a worker-count-independent amount of randomness.
		sum := float64(i)
		for k := 0; k < 10; k++ {
			sum += d.Float64(k)
		}
		return sum, nil
	}
	ref, err := RunSampled(n, job, Options{Workers: 1, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7, 16, n + 5} {
		got, err := RunSampled(n, job, Options{Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v (bit-identical)", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	job := func(i int, d sampler.Draws) (float64, error) { return d.Float64(0), nil }
	a, _ := RunSampled(8, job, Options{BaseSeed: 1})
	b, _ := RunSampled(8, job, Options{BaseSeed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different base seeds produced identical streams")
	}
	// Neighbouring jobs must not share a stream either.
	if a[0] == a[1] {
		t.Error("jobs 0 and 1 drew the same first value")
	}
}

func TestRunEmptyAndErrors(t *testing.T) {
	got, err := RunSampled(0, func(int, sampler.Draws) (int, error) { return 0, nil }, Options{})
	if err != nil || len(got) != 0 {
		t.Errorf("empty run: %v, %v", got, err)
	}
	if _, err := RunSampled(-1, func(int, sampler.Draws) (int, error) { return 0, nil }, Options{}); err == nil {
		t.Error("negative job count accepted")
	}
	if _, err := RunSampled[int](3, nil, Options{}); err == nil {
		t.Error("nil job function accepted")
	}
}

// TestRunPartialFailure: one failing job aborts the run, the reported error
// is the failing job's, and it carries the job index.
func TestRunPartialFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var executed atomic.Int64
		_, err := RunSampled(1000, func(i int, _ sampler.Draws) (int, error) {
			executed.Add(1)
			if i == 5 {
				return 0, fmt.Errorf("job 5: %w", boom)
			}
			time.Sleep(time.Microsecond)
			return i, nil
		}, Options{Workers: workers})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		var je *JobError
		if !errors.As(err, &je) || je.Index != 5 {
			t.Fatalf("workers=%d: err = %#v, want JobError{Index: 5}", workers, err)
		}
		// The failure must abort the batch: nowhere near all 1000 jobs ran.
		if n := executed.Load(); n == 1000 {
			t.Errorf("workers=%d: all jobs executed despite early failure", workers)
		}
	}
}

// TestRunLowestIndexErrorWins: with several failing jobs the reported error
// is deterministic — the lowest failed index among those executed.
func TestRunLowestIndexErrorWins(t *testing.T) {
	_, err := RunSampled(8, func(i int, _ sampler.Draws) (int, error) {
		if i >= 4 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}, Options{Workers: 8})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want JobError", err)
	}
	if je.Index != 4 {
		t.Errorf("reported index %d, want 4 (lowest failed)", je.Index)
	}
}

// TestRunContextCancellation: cancelling the context stops the run early
// and reports ErrCanceled wrapping the context error.
func TestRunContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int64
		_, err := RunSampledContext(ctx, 100_000, func(i int, _ sampler.Draws) (int, error) {
			if executed.Add(1) == 10 {
				cancel()
			}
			return i, nil
		}, Options{Workers: workers})
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
		if n := executed.Load(); n == 100_000 {
			t.Errorf("workers=%d: run completed despite cancellation", workers)
		}
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	_, err := RunSampledContext(ctx, 50, func(i int, _ sampler.Draws) (int, error) {
		executed.Add(1)
		return i, nil
	}, Options{Workers: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if executed.Load() != 0 {
		t.Errorf("%d jobs ran under a dead context", executed.Load())
	}
}

// TestRunUsesMultipleGoroutines sanity-checks that the pool actually fans
// out: with enough workers, several jobs overlap in time.
func TestRunUsesMultipleGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU runner")
	}
	var inFlight, peak atomic.Int64
	_, err := RunSampled(32, func(i int, _ sampler.Draws) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		return i, nil
	}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want ≥ 2", peak.Load())
	}
}

// TestParallelWallClockSpeedup uses latency-bound (sleeping) jobs so the
// pool's concurrency shows up even on a single-CPU runner: 32 jobs of ~4ms
// take ≥128ms serially but a fraction of that on 8 workers. The CPU-bound
// analogue lives in the root bench_test.go (BenchmarkSweep*).
func TestParallelWallClockSpeedup(t *testing.T) {
	job := func(i int, _ sampler.Draws) (int, error) {
		time.Sleep(4 * time.Millisecond)
		return i, nil
	}
	start := time.Now()
	if _, err := RunSampled(32, job, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)
	start = time.Now()
	if _, err := RunSampled(32, job, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)
	if parallel*2 > serial {
		t.Errorf("8 workers took %v vs %v serial; expected at least 2x speedup on latency-bound jobs", parallel, serial)
	}
}

func TestSeedStability(t *testing.T) {
	// The derivation is part of the reproducibility contract: changing it
	// silently would change every recorded Monte-Carlo experiment. Pin a
	// few values.
	if Seed(0, 0) == Seed(0, 1) || Seed(0, 0) == Seed(1, 0) {
		t.Error("seed collisions on trivial inputs")
	}
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for idx := 0; idx < 256; idx++ {
			s := Seed(base, idx)
			if seen[s] {
				t.Fatalf("seed collision at base=%d idx=%d", base, idx)
			}
			seen[s] = true
		}
	}
}
