package experiments

import (
	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trajectory"
)

// This file holds the two batch-eligible sweeps, one per kernel: the
// rendezvous sweep behind SweepGrid and MonteCarlo, and the search sweep
// behind E1. A caller states each job once, as a function of its dense
// index and draws; Config.Batch picks how the jobs run. Off, each job is
// one sweep.RunSampled job through the cache's singleflight walk: the
// scalar reference the goldens and perfbench check. On, each
// sweep.RunBatchedSampled chunk — a contiguous stretch of one row of the
// job index space, whose lanes share one program — serves its cached lanes,
// gathers the misses into one batch.Lanes vector, walks them in one SoA
// kernel call and caches what it walked, under the scalar path's cache
// keys, draws and error texts. Tables are byte-identical either way.

// gridOutcome is the per-job record of a rendezvous sweep. Exported fields
// with JSON tags: it is the record a distributed shard exchanges, so it
// must round-trip exactly (the wire format is shared by the scalar and
// batched paths, letting shards of either kind recombine).
type gridOutcome struct {
	Met  bool    `json:"met"`
	Time float64 `json:"t"`
}

// rendezvousSweep runs n rendezvous jobs of one program in rows of rowSize,
// drawing from a sampler whose block is block jobs. job derives job i's
// instance and horizon from its draws; walkErr words a failed walk of job
// i. Every chunk of a batched run walks one sim.Tape of the program,
// recorded once per sweep.
func rendezvousSweep(cfg Config, n, rowSize, block int, programID string, program func() trajectory.Source,
	job func(i int, d sampler.Draws) (sim.Instance, float64, error),
	walkErr func(i int, in sim.Instance, err error) error) ([]gridOutcome, error) {
	sopt := cfg.sweepOptions()
	sopt.Sampler = cfg.samplerSource(block)
	if !cfg.Batch {
		return sweep.RunSampled(n, func(i int, d sampler.Draws) (gridOutcome, error) {
			in, h, err := job(i, d)
			if err != nil {
				return gridOutcome{}, err
			}
			res, err := cfg.Cache.Rendezvous(programID, program, in, sim.Options{Horizon: h, Ctx: cfg.Ctx})
			if err != nil {
				return gridOutcome{}, walkErr(i, in, err)
			}
			return gridOutcome{Met: res.Met, Time: res.Time}, nil
		}, sopt)
	}
	tape := sim.NewTape(program())
	return sweep.RunBatchedSampled(n, rowSize, func(indices []int, at func(int) sampler.Draws) ([]gridOutcome, error) {
		out := make([]gridOutcome, len(indices))
		keys := make([]cache.Key, len(indices))
		laneOf := make([]int, 0, len(indices))
		var lanes batch.Lanes
		var bad *sweep.LaneError
		for k, i := range indices {
			in, h, err := job(i, at(i))
			if err != nil {
				bad = lowest(bad, k, err)
				continue
			}
			keys[k] = cache.RendezvousKey(programID, in, sim.Options{Horizon: h})
			if res, ok := cfg.Cache.Get(keys[k]); ok {
				out[k] = gridOutcome{Met: res.Met, Time: res.Time}
				continue
			}
			lanes.AddRendezvous(in.Attrs, in.D, in.R, h)
			laneOf = append(laneOf, k)
		}
		if lanes.Len() > 0 {
			if cfg.OnBatch != nil {
				cfg.OnBatch(1, lanes.Len())
			}
			results, kerrs := tape.Rendezvous(&lanes, sim.Options{Ctx: cfg.Ctx})
			for li, k := range laneOf {
				if kerrs[li] != nil {
					// Only a failed lane needs its instance again.
					i := indices[k]
					in, _, _ := job(i, at(i))
					bad = lowest(bad, k, walkErr(i, in, kerrs[li]))
					continue
				}
				cfg.Cache.Put(keys[k], results[li])
				out[k] = gridOutcome{Met: results[li].Met, Time: results[li].Time}
			}
		}
		if bad != nil {
			return nil, bad
		}
		return out, nil
	}, sopt)
}

// searchSweep is rendezvousSweep's twin on the search kernel: job derives
// job i's target, visibility radius and horizon from its draws, and done
// turns job i's walk, or its walk error, into the job's value or error.
// Every chunk of a batched run is one sim.SearchBatch call.
func searchSweep(cfg Config, n, rowSize, block int, programID string, program func() trajectory.Source,
	job func(i int, d sampler.Draws) (target geom.Vec, r, horizon float64),
	done func(i int, res sim.Result, err error) (float64, error)) ([]float64, error) {
	sopt := cfg.sweepOptions()
	sopt.Sampler = cfg.samplerSource(block)
	if !cfg.Batch {
		return sweep.RunSampled(n, func(i int, d sampler.Draws) (float64, error) {
			target, r, h := job(i, d)
			res, err := cfg.Cache.Search(programID, program, target, r, sim.Options{Horizon: h, Ctx: cfg.Ctx})
			return done(i, res, err)
		}, sopt)
	}
	return sweep.RunBatchedSampled(n, rowSize, func(indices []int, at func(int) sampler.Draws) ([]float64, error) {
		out := make([]float64, len(indices))
		keys := make([]cache.Key, len(indices))
		laneOf := make([]int, 0, len(indices))
		var lanes batch.Lanes
		var bad *sweep.LaneError
		for k, i := range indices {
			target, r, h := job(i, at(i))
			keys[k] = cache.SearchKey(programID, target, r, sim.Options{Horizon: h})
			if res, ok := cfg.Cache.Get(keys[k]); ok {
				var err error
				if out[k], err = done(i, res, nil); err != nil {
					bad = lowest(bad, k, err)
				}
				continue
			}
			lanes.AddSearch(target, r, h)
			laneOf = append(laneOf, k)
		}
		if lanes.Len() > 0 {
			if cfg.OnBatch != nil {
				cfg.OnBatch(1, lanes.Len())
			}
			results, kerrs := sim.SearchBatch(program(), &lanes, sim.Options{Ctx: cfg.Ctx})
			for li, k := range laneOf {
				if kerrs[li] == nil {
					cfg.Cache.Put(keys[k], results[li])
				}
				var err error
				if out[k], err = done(indices[k], results[li], kerrs[li]); err != nil {
					bad = lowest(bad, k, err)
				}
			}
		}
		if bad != nil {
			return nil, bad
		}
		return out, nil
	}, sopt)
}

// lowest keeps a chunk's lowest-lane error, the one the scalar path, which
// reports its lowest failed job, returns.
func lowest(bad *sweep.LaneError, k int, err error) *sweep.LaneError {
	if bad == nil || k < bad.Lane {
		return &sweep.LaneError{Lane: k, Err: err}
	}
	return bad
}
