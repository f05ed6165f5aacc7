package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/sampler"
	"repro/internal/sweep"
)

// Config controls how an experiment's parameter grid is executed. The zero
// value runs fully parallel (one worker per CPU) with seed 0, no
// Monte-Carlo sampling, and no caching — the deterministic grids the
// paper's tables use.
type Config struct {
	// Workers is the sweep pool size: 0 = GOMAXPROCS, 1 = serial. Output
	// is bit-identical for every value (see internal/sweep).
	Workers int
	// Seed is the base seed for Monte-Carlo sampling; per-instance seeds
	// are derived from (Seed, job index).
	Seed int64
	// Samples, when > 0, switches the sweeps that support it (E1 and
	// SweepGrid) to Monte-Carlo sampling with Samples random draws per grid
	// cell instead of their fixed deterministic sweep, and adds
	// summary-statistic columns (min/mean/p90/max via internal/analysis).
	// It is MonteCarlo's sample count.
	Samples int
	// Sampler selects the per-cell draw source for the Monte-Carlo sweeps:
	// pseudo (the default, bit-identical to the original rand.Rand path) or
	// one of the low-discrepancy kinds (stratified, halton, sobol), which
	// trade i.i.d. draws for evenly spread ones and reach a given estimator
	// error at substantially fewer samples (see the CONV experiment).
	// Deterministic (non-MC) sweeps ignore it.
	Sampler sampler.Kind
	// Cache, when non-nil, memoizes simulation results across jobs,
	// experiments, and re-runs (see internal/cache). Tables are
	// byte-identical with the cache present or absent, warm or cold.
	Cache *cache.Cache
	// Monitor, when non-nil, receives per-job progress and timing from
	// every sweep the experiments run.
	Monitor *sweep.Monitor
	// Shard restricts every sweep to the job indices one slice of a K-way
	// distributed run owns (see sweep.Shard); the zero value runs
	// everything. A sharded run's tables are partial garbage — render them
	// to io.Discard and keep only the Store records, which a merge run
	// recombines into the exact single-process output.
	Shard sweep.Shard
	// Store, when non-nil, exchanges per-job sweep results across
	// processes: a sharded run records the jobs it executes, a merge run
	// is served the union of the shards' records and recomputes only what
	// is missing (producing identical bytes either way). Store is honoured
	// only through the RunAllCfg / RunOneCfg / RunGridCfg entry points,
	// which assign each sweep its deterministic batch name.
	Store *ShardStore

	// Pool, when non-nil, runs every sweep's claim loop on the pool's
	// long-lived workers instead of goroutines owned by the run, so
	// concurrent runs draw from one process-wide worker budget (Workers is
	// then ignored; the pool's size is the cap). A pool worker stays on one
	// sweep until that sweep has no unclaimed job. RunAllCfg installs its
	// own pool for the suite; cmd/rvserved threads its process-wide pool
	// through here so concurrent sweep requests share one budget. Results
	// are identical either way.
	Pool *sweep.Pool
	// Batch, when true, runs the batch-eligible sweeps — SweepGrid behind
	// the -grid flags and cmd/rvserved's /v1/sweep, MonteCarlo behind
	// rvsim -samples, and E1's direction fans — on the SoA batch kernels
	// (sim.Tape.Rendezvous / sim.SearchBatch via sweep.RunBatchedSampled),
	// one kernel call per row of lanes or chunk of a split row (see
	// batch.go). The CLIs and cmd/rvserved always set it. False selects the
	// scalar per-job path: the reference the goldens and perfbench check
	// the batch path against. Results are byte-identical either way.
	// Experiments without a batch kernel ignore it.
	Batch bool
	// OnBatch, when non-nil, is called once per batch kernel call — once
	// per row, or per chunk of a row the sweep split among workers — with
	// a count of 1 and the number of lanes in the call: the feed for
	// cmd/rvserved's batch.rows / batch.lanes telemetry. It must be safe
	// for concurrent use: calls run on the sweep workers.
	OnBatch func(rows, lanes int)
	// Ctx, when non-nil, threads a cancellation context into the walks of
	// every batch-eligible sweep, on both paths (sim.Options.Ctx): a
	// request deadline on cmd/rvserved cancels in-flight jobs mid-walk
	// instead of waiting out their horizons. Results are byte-identical with Ctx nil or live —
	// cancellation replaces results with an error, never alters them — and
	// Ctx never enters a cache key.
	Ctx context.Context

	// sweepNames mints the deterministic per-sweep batch names ("E3#0",
	// "E3#1", ...) that key the Store records. Each runner gets its own
	// counter, so names are stable however the suite is scheduled.
	sweepNames *batchCounter
}

// batchCounter numbers the sweeps of one experiment in call order. Sweeps
// inside a runner are sequential, so a plain counter is deterministic; the
// pointer is shared by the Config copies handed down within that runner.
type batchCounter struct {
	prefix string
	n      int
}

func (b *batchCounter) next() string {
	id := fmt.Sprintf("%s#%d", b.prefix, b.n)
	b.n++
	return id
}

func (c Config) sweepOptions() sweep.Options {
	opt := sweep.Options{Workers: c.Workers, BaseSeed: c.Seed, Pool: c.Pool, Monitor: c.Monitor, Shard: c.Shard}
	if c.Store != nil && c.sweepNames != nil {
		opt.Exchange = c.Store
		opt.Batch = c.sweepNames.next()
	}
	return opt
}

// samplerSource resolves cfg.Sampler into a draw source whose block size
// is the number of samples per estimate (the unit one QMC sequence should
// stratify). Pseudo ignores the block, so the default path allocates
// nothing new.
func (c Config) samplerSource(block int) *sampler.Source {
	return sampler.New(c.Sampler, block)
}
