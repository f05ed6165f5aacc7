// Package sweep is the deterministic batch engine of the experiment
// layer: it runs independent simulation instances and collects the results
// in index order, so a sweep produces bit-identical output no matter how
// many workers execute it.
//
// Each job is identified by a dense index i ∈ [0, n); the engine hands job
// i a private draw handle addressed by (Options.BaseSeed, i) — see
// internal/sampler — never shares mutable state between jobs, and writes
// result i into slot i of a pre-sized slice. Execution order is therefore
// free, and one claim loop schedules every run: each worker claims the next
// unclaimed index of the run's Shard from a shared atomic counter and runs
// it. A run stops early only on a failed job: the first job error stops
// every worker, and the run reports the lowest failed index. The engine
// has no cancellation of its own; a job that must be cancellable cancels
// itself, as the simulations do through sim.Options.Ctx, and fails. The
// loop runs in the calling goroutine (Options.Workers 1), on goroutines
// the run starts, or on the long-lived workers of a Pool shared with other
// runs; the results are the same on each. A Monitor can observe per-job
// progress and timing.
//
// There are two entry points, one per job kind: RunSampled runs one job
// per index, and RunBatchedSampled runs rows of jobs per call, the shape
// of the SoA batch kernels. Both hand each job a sampler.Draws whose kind
// is chosen by Options.Sampler. Every draw is a pure function of (seed,
// index, dimension), so any sampler splits across a K-way Shard fleet and
// recombines byte-identically. A grid sweep runs over the dense indices
// of Grid.Jobs and decodes its point with Grid.Point.
package sweep

import (
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
	// Workers is the number of goroutines running the claim loop: 0
	// selects runtime.GOMAXPROCS(0), 1 runs every job in the calling
	// goroutine, and more start min(Workers, owned jobs) goroutines for the
	// run. Ignored when Pool is set.
	Workers int
	// BaseSeed is the root of the per-job draw derivation. Two runs with
	// the same BaseSeed and job count see identical random streams per
	// index.
	BaseSeed int64
	// Sampler selects the per-job draw source handed to jobs; nil is the
	// pseudo sampler (bit-identical to the pre-sampler engine).
	Sampler *sampler.Source
	// Pool, when non-nil, runs the claim loop on the pool's long-lived
	// workers, so concurrent runs share one worker budget. A pool worker
	// stays on one run until that run has no unclaimed index. Jobs must
	// not start runs on their own pool (see Pool).
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

// workers resolves how many workers run the claim loop.
func (o Options) workers() int {
	switch {
	case o.Pool != nil:
		return o.Pool.Workers()
	case o.Workers <= 0:
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

// lookup serves job i's result from opt.Exchange when it is recorded there.
// A record that fails to decode is treated as absent: the job recomputes
// locally and produces the identical result from its (BaseSeed, index)
// draws.
func lookup[T any](opt Options, i int) (T, bool) {
	if opt.Exchange != nil {
		if raw, ok := opt.Exchange.Lookup(opt.Batch, i); ok {
			var v T
			if json.Unmarshal(raw, &v) == nil {
				return v, true
			}
		}
	}
	var zero T
	return zero, false
}

// record stores job i's computed result into opt.Exchange, when there is
// one and the result survives a JSON round trip (see roundTrips).
func record[T any](opt Options, i int, v T) {
	if opt.Exchange == nil {
		return
	}
	if raw, ok := roundTrips(v); ok {
		opt.Exchange.Record(opt.Batch, i, raw)
	}
}

// RunSampled executes fn(i, d) for every i in [0, n) and returns the
// results in index order. Job i gets the opt.Sampler draw handle addressed
// by (opt.BaseSeed, i), so output is independent of scheduling. If any job
// fails, unclaimed jobs are abandoned and the error of the lowest-index
// failed job is returned. An opt.Shard restricts execution to the indices
// it owns (the other slots stay zero); an opt.Exchange serves recorded
// jobs and records computed ones, so K sharded runs recombine bit-exactly.
func RunSampled[T any](n int, fn JobFunc[T], opt Options) ([]T, error) {
	if fn == nil {
		return nil, errors.New("sweep: nil job function")
	}
	results, err := newRun[T](n, opt)
	if err != nil {
		return nil, err
	}
	src, seed := opt.sampler(), opt.BaseSeed
	// The exchange serves or records each job and the monitor times it, the
	// per-lane steps of RunBatchedSampled.
	err = schedule(n, opt.Shard, opt, func(i int) (err error) {
		start := time.Now()
		if v, ok := lookup[T](opt, i); ok {
			results[i] = v
		} else if results[i], err = fn(i, src.Draws(seed, i)); err == nil {
			record(opt, i, results[i])
		}
		opt.Monitor.jobDone(time.Since(start))
		return err
	})
	return results, err
}

// newRun validates a run of n jobs under opt, registers its owned jobs
// with opt.Monitor, and returns its zeroed result slice.
func newRun[T any](n int, opt Options) ([]T, error) {
	if n < 0 {
		return nil, errors.New("sweep: negative job count")
	}
	if err := opt.Shard.Validate(); err != nil {
		return nil, err
	}
	opt.Monitor.add(opt.Shard.CountIn(n))
	return make([]T, n), nil
}

// claims is one run's state in the claim loop. Workers take ordinals from
// next and run the k-th owned index, so each owned index runs once and
// indices are claimed in increasing order. A claimed index always runs
// (stop is checked before a claim), so every index below a failed one
// finishes, and the lowest failed index does not depend on scheduling.
type claims struct {
	job   func(i int) error
	shard Shard
	owned int64          // owned indices in [0, n)
	next  atomic.Int64   // next unclaimed ordinal
	stop  atomic.Bool    // a job failed
	wg    sync.WaitGroup // executors other than the caller

	mu     sync.Mutex
	failed int // lowest failed index, when err != nil
	err    error

	left   atomic.Int64  // pool workers that have left work
	exited chan struct{} // closed by the first of them: nothing to hand off
}

// work is the claim loop. It returns when every owned index is claimed or
// a job has failed.
func (c *claims) work() {
	for !c.stop.Load() {
		k := c.next.Add(1) - 1
		if k >= c.owned {
			return
		}
		i := c.shard.nth(int(k))
		if err := c.job(i); err != nil {
			c.mu.Lock()
			if c.err == nil || i < c.failed {
				c.failed, c.err = i, err
			}
			c.mu.Unlock()
			c.stop.Store(true)
			return
		}
	}
}

// schedule runs job(i) for every index in [0, n) the shard owns, in the
// claim loop: on opt.Pool's workers, in the calling goroutine when
// opt.Workers resolves to 1, else on min(workers, owned) new goroutines.
// It returns the lowest-index job failure as a *JobError.
func schedule(n int, shard Shard, opt Options, job func(i int) error) error {
	c := &claims{job: job, shard: shard, owned: int64(shard.CountIn(n))}
	workers := opt.workers()
	switch {
	case opt.Pool != nil:
		opt.Pool.run(c)
	case workers == 1:
		c.work()
	default:
		for range min(int64(workers), c.owned) {
			c.wg.Add(1)
			go func() { defer c.wg.Done(); c.work() }()
		}
		c.wg.Wait()
	}
	if c.err != nil {
		return &JobError{Index: c.failed, Err: c.err}
	}
	return nil
}

// JobError reports which job failed.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying job error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }
