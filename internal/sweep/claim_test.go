package sweep

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sampler"
)

// claimSchedulers are the executors of the claim loop: the calling
// goroutine, private goroutines, and pools of one and several workers.
// size is the worker count of each.
var claimSchedulers = []struct {
	name string
	size int
	pool bool
}{
	{"workers=1", 1, false},
	{"workers=2", 2, false},
	{"workers=8", 8, false},
	{"pool=1", 1, true},
	{"pool=3", 3, true},
}

// TestClaimLoopRunsOwnedIndicesOnce: on every scheduler and shard, each
// owned index runs exactly once, with its own draws, and no unowned index
// runs — including runs of no job, one job, and fewer jobs than workers.
func TestClaimLoopRunsOwnedIndicesOnce(t *testing.T) {
	for _, sc := range claimSchedulers {
		var opt Options
		if sc.pool {
			p := NewPool(sc.size)
			defer p.Close()
			opt.Pool = p
		} else {
			opt.Workers = sc.size
		}
		for _, sh := range []Shard{{Index: 0, Count: 1}, {Index: 1, Count: 3}} {
			for _, n := range []int{0, 1, sc.size - 1, 2*sc.size + 3} {
				t.Run(fmt.Sprintf("%s/shard=%v/n=%d", sc.name, sh, n), func(t *testing.T) {
					opt := opt
					opt.Shard, opt.BaseSeed = sh, 5
					runs := make([]atomic.Int64, n)
					got, err := RunSampled(n, func(i int, d sampler.Draws) (float64, error) {
						runs[i].Add(1)
						return d.Float64(0), nil
					}, opt)
					if err != nil {
						t.Fatal(err)
					}
					src := sampler.Default()
					for i := range runs {
						want, wantRuns := 0.0, int64(0)
						if sh.Owns(i) {
							want, wantRuns = src.Draws(5, i).Float64(0), 1
						}
						if r := runs[i].Load(); r != wantRuns {
							t.Errorf("index %d (owned %v) ran %d times, want %d", i, sh.Owns(i), r, wantRuns)
						}
						if got[i] != want {
							t.Errorf("index %d: result %v, want %v", i, got[i], want)
						}
					}
				})
			}
		}
	}
}

// TestClaimLoopAllocs pins what scheduling costs in allocations. A pooled
// run hands its claim loop to each worker once, so its allocations do not
// grow with the job count; the serial and private-goroutine runs stay
// within 3 and 10 allocations (the result slice included).
func TestClaimLoopAllocs(t *testing.T) {
	job := func(i int, _ sampler.Draws) (int, error) { return i, nil }
	allocs := func(n int, opt Options) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := RunSampled(n, job, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	p := NewPool(2)
	defer p.Close()
	if small, large := allocs(64, Options{Pool: p}), allocs(1024, Options{Pool: p}); small != large {
		t.Errorf("pooled RunSampled: %v allocs at n=64, %v at n=1024; want no growth with n", small, large)
	}
	for _, c := range []struct {
		workers int
		ceiling float64
	}{{1, 3}, {2, 10}} {
		if a := allocs(1024, Options{Workers: c.workers}); a > c.ceiling {
			t.Errorf("RunSampled with %d workers: %v allocs per run, want ≤ %v", c.workers, a, c.ceiling)
		}
	}
}
