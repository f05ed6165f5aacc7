// Package sweep is a deterministic worker-pool batch engine for the
// experiment layer: it fans independent simulation instances out across
// GOMAXPROCS goroutines and collects the results in index order, so a sweep
// produces bit-identical output no matter how many workers execute it.
//
// Determinism is the design constraint everything else follows from. Each
// job is identified by a dense index i ∈ [0, n); the engine hands job i a
// private draw handle addressed by (Options.BaseSeed, i) — see
// internal/sampler — never shares mutable state between jobs, and writes
// result i into slot i of a pre-sized slice. Monte-Carlo sweeps therefore
// reproduce exactly for a fixed base seed whether they run on 1 worker or
// 64 — and whether the batch runs on its own goroutines or on a Pool shared
// with other batches (the shared global pool RunAllCfg uses to cap a whole
// suite at one worker budget). A Monitor can observe per-job progress and
// timing.
//
// The entry points (RunSampled, RunGridSampled, RunBatchedSampled) hand
// each job a sampler.Draws whose kind is chosen by Options.Sampler —
// pseudo-random by default, or a low-discrepancy Sobol/Halton/stratified
// source. Because every draw is a pure function of (seed, index,
// dimension), any sampler splits across a K-way Shard fleet and recombines
// byte-identically.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sampler"
)

// Options control a batch run.
type Options struct {
	// Workers is the number of concurrent goroutines executing jobs.
	// 0 selects runtime.GOMAXPROCS(0); 1 runs every job serially in the
	// calling goroutine (useful to isolate concurrency from a failure).
	// Ignored when Pool is set.
	Workers int
	// BaseSeed is the root of the per-job draw derivation. Two runs with
	// the same BaseSeed and job count see identical random streams per
	// index.
	BaseSeed int64
	// Sampler selects the per-job draw source handed to jobs; nil is the
	// pseudo sampler (bit-identical to the pre-sampler engine).
	Sampler *sampler.Source
	// Pool, when non-nil, executes the jobs on a shared worker pool instead
	// of goroutines owned by this run, so several concurrent batches share
	// one worker budget. Results are identical either way.
	Pool *Pool
	// Monitor, when non-nil, receives per-job progress and timing.
	Monitor *Monitor
	// Shard restricts the run to the job indices it owns (see Shard); the
	// zero value runs everything. Skipped jobs leave their result slot at
	// the zero value — a sharded run is one slice of a distributed whole,
	// recombined through an Exchange.
	Shard Shard
	// Exchange, when non-nil, persists per-job results across processes:
	// executed jobs are recorded under (Batch, index), and jobs whose
	// result is already recorded are served without executing. See Exchange.
	Exchange Exchange
	// Batch names this run inside the Exchange namespace. Callers
	// running several sweeps against one exchange must give each a
	// distinct, deterministic name.
	Batch string
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// sampler resolves the draw source: nil means pseudo.
func (o Options) sampler() *sampler.Source {
	if o.Sampler != nil {
		return o.Sampler
	}
	return sampler.Default()
}

// ErrCanceled is wrapped into the error returned when the context ends a
// run before every job has executed.
var ErrCanceled = errors.New("sweep: run canceled")

// Seed derives the RNG seed of job index from base; it delegates to
// sampler.SeedAt, the one splitmix64 derivation the whole suite shares.
func Seed(base int64, index int) int64 {
	return sampler.SeedAt(base, index)
}

// Rand returns the private pseudo RNG of job index for the given base
// seed: the stream whose successive Float64 values are the pseudo
// sampler's dimensions 0, 1, … of that job. Tests hold the sampler to it.
func Rand(base int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(Seed(base, index)))
}

// JobFunc is the sampler-aware job signature the engine executes: job i
// receives its dimension-addressed draw handle (see sampler.Draws).
type JobFunc[T any] func(i int, d sampler.Draws) (T, error)

// wrapJob layers the optional per-job middleware around fn — the exchange
// (serve recorded results, record computed ones) and the monitor (per-job
// timing). This is the one wrapping helper every run path shares; the
// layers used to be open-coded closures repeated per concern.
func wrapJob[T any](fn JobFunc[T], opt Options) JobFunc[T] {
	if x := opt.Exchange; x != nil {
		// A record that fails to decode is treated as absent: the job
		// recomputes locally and produces the identical result from its
		// (BaseSeed, index) draws.
		inner := fn
		fn = func(i int, d sampler.Draws) (T, error) {
			if raw, ok := x.Lookup(opt.Batch, i); ok {
				var v T
				if json.Unmarshal(raw, &v) == nil {
					return v, nil
				}
			}
			v, err := inner(i, d)
			if err == nil {
				if raw, ok := roundTrips(v); ok {
					x.Record(opt.Batch, i, raw)
				}
			}
			return v, err
		}
	}
	if m := opt.Monitor; m != nil {
		inner := fn
		fn = func(i int, d sampler.Draws) (T, error) {
			start := time.Now()
			v, err := inner(i, d)
			m.jobDone(time.Since(start))
			return v, err
		}
	}
	return fn
}

// RunSampled executes fn(i, d) for every i in [0, n) across opt.Workers
// goroutines and returns the results in index order. The handle passed to
// job i is the opt.Sampler draw handle addressed by (opt.BaseSeed, i), so
// output is independent of worker count and scheduling. If any job fails,
// outstanding jobs are abandoned and the error of the lowest-index failed
// job is returned. An opt.Shard restricts execution to the indices it owns
// (the skipped slots stay zero); an opt.Exchange serves already-recorded
// jobs and records computed ones, so K sharded runs recombine into the
// full result set bit-exactly.
func RunSampled[T any](n int, fn JobFunc[T], opt Options) ([]T, error) {
	return RunSampledContext(context.Background(), n, fn, opt)
}

// RunSampledContext is RunSampled with cancellation: when ctx ends, workers
// stop picking up new jobs and the context error is reported (wrapped with
// ErrCanceled) unless a job error — which takes precedence — occurred
// first. It is the engine every entry point reduces to.
func RunSampledContext[T any](ctx context.Context, n int, fn JobFunc[T], opt Options) ([]T, error) {
	if n < 0 {
		return nil, errors.New("sweep: negative job count")
	}
	if fn == nil {
		return nil, errors.New("sweep: nil job function")
	}
	if err := opt.Shard.Validate(); err != nil {
		return nil, err
	}
	results := make([]T, n)
	errs := make([]error, n)
	canceled := false

	if opt.Monitor != nil {
		opt.Monitor.add(opt.Shard.CountIn(n))
	}
	fn = wrapJob(fn, opt)
	src := opt.sampler()

	if opt.Pool != nil {
		canceled = runPooled(ctx, n, fn, src, opt, results, errs)
	} else if workers := opt.workers(); workers == 1 {
		// Serial path: run in the calling goroutine. Results are identical
		// to the parallel path by construction (same per-index draws).
		for i := 0; i < n; i++ {
			if !opt.Shard.Owns(i) {
				continue
			}
			if ctx.Err() != nil {
				canceled = true
				break
			}
			results[i], errs[i] = fn(i, src.Draws(opt.BaseSeed, i))
			if errs[i] != nil {
				break
			}
		}
	} else {
		// Parallel path: a shared index channel feeds the pool; each worker
		// writes only its own slots, so no locking is needed on results.
		inner, cancel := context.WithCancel(ctx)
		defer cancel()
		indices := make(chan int)
		var wg sync.WaitGroup
		if owned := opt.Shard.CountIn(n); workers > owned {
			workers = owned
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					results[i], errs[i] = fn(i, src.Draws(opt.BaseSeed, i))
					if errs[i] != nil {
						cancel() // stop feeding; peers finish their current job
						return
					}
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			if !opt.Shard.Owns(i) {
				continue
			}
			select {
			case indices <- i:
			case <-inner.Done():
				canceled = ctx.Err() != nil
				break feed
			}
		}
		close(indices)
		wg.Wait()
	}

	// Report the lowest-index failure so the caller sees a deterministic
	// error even when several jobs fail in the same run.
	for i, err := range errs {
		if err != nil {
			return results, &JobError{Index: i, Err: err}
		}
	}
	if canceled {
		return results, errors.Join(ErrCanceled, ctx.Err())
	}
	return results, nil
}

// runPooled feeds the batch to a shared Pool. Each job still writes only
// its own slot with its own (BaseSeed, index) draws, so results match the
// private-goroutine paths bit for bit. On a job error the remaining
// submitted jobs are abandoned (they return without executing fn); on
// context cancellation the feed stops and canceled is reported.
func runPooled[T any](ctx context.Context, n int, fn JobFunc[T], src *sampler.Source, opt Options, results []T, errs []error) (canceled bool) {
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var skipped atomic.Bool
feed:
	for i := 0; i < n; i++ {
		if !opt.Shard.Owns(i) {
			continue
		}
		i := i
		job := func() {
			defer wg.Done()
			if inner.Err() != nil {
				skipped.Store(true) // a peer failed or the context ended
				return
			}
			results[i], errs[i] = fn(i, src.Draws(opt.BaseSeed, i))
			if errs[i] != nil {
				cancel()
			}
		}
		wg.Add(1)
		select {
		case opt.Pool.jobs <- job:
		case <-inner.Done():
			wg.Done()
			canceled = ctx.Err() != nil
			break feed
		}
	}
	wg.Wait()
	// Jobs queued before a context cancellation skip execution, leaving
	// zero-valued slots: that must surface as a cancellation even when the
	// feed itself completed (skips caused by a peer's error surface as the
	// peer's JobError instead, which takes precedence in the caller).
	if skipped.Load() && ctx.Err() != nil {
		canceled = true
	}
	return canceled
}

// JobError reports which job failed.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying job error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }
