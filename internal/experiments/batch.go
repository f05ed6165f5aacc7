package experiments

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/bounds"
	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// This file holds the batched row evaluators behind Config.Batch: one
// sweep.RunBatchedSampled chunk — a contiguous stretch of one row of the
// dense job index space, whose lanes share an algorithm program shape — is
// gathered into a batch.Lanes vector, evaluated by one SoA kernel call, and
// scattered back into per-lane results with exactly the scalar path's cache
// keys, RNG draws, and error texts. Tables are byte-identical to the scalar
// jobs.

// gridOutcome is the per-job record of a -grid sweep. Exported fields with
// JSON tags: it is the record a distributed shard exchanges, so it must
// round-trip exactly (the wire format is shared by the scalar and batched
// paths, letting shards of either kind recombine).
type gridOutcome struct {
	Met  bool    `json:"met"`
	Time float64 `json:"t"`
}

// gridBatchRow evaluates one batched chunk of SweepGrid: samples of one
// grid point (the row size is the sample count, so every lane shares the
// point's parameters up to the sampled displacement direction), walked over
// the grid's shared tape.
func gridBatchRow(grid sweep.Grid, names []string, samples int, programID string, tape *sim.Tape, cfg Config, indices []int, at func(int) sampler.Draws) ([]gridOutcome, error) {
	out := make([]gridOutcome, len(indices))
	lerrs := make([]error, len(indices))
	keys := make([]cache.Key, len(indices))
	var lanes batch.Lanes
	laneOf := make([]int, 0, len(indices))
	for k, i := range indices {
		point := grid.Point(i / samples)
		in, err := GridInstance(names, point)
		if err != nil {
			lerrs[k] = fmt.Errorf("point %v: %w", point, err)
			continue
		}
		if cfg.Samples > 0 {
			in.D = geom.Polar(in.D.Norm(), 2*math.Pi*at(i).Float64(0))
		}
		opt := sim.Options{Horizon: RendezvousHorizon(in)}
		keys[k] = cache.RendezvousKey(programID, in, opt)
		if res, ok := cfg.Cache.Get(keys[k]); ok {
			out[k] = gridOutcome{Met: res.Met, Time: res.Time}
			continue
		}
		lanes.AddRendezvous(in.Attrs, in.D, in.R, opt.Horizon)
		laneOf = append(laneOf, k)
	}
	if lanes.Len() > 0 {
		if cfg.OnBatch != nil {
			cfg.OnBatch(1, lanes.Len())
		}
		results, kerrs := tape.Rendezvous(&lanes, sim.Options{Ctx: cfg.Ctx})
		for li, k := range laneOf {
			i := indices[k]
			if kerrs[li] != nil {
				point := grid.Point(i / samples)
				lerrs[k] = fmt.Errorf("point %v sample %d: %w", point, i%samples, kerrs[li])
				continue
			}
			cfg.Cache.Put(keys[k], results[li])
			out[k] = gridOutcome{Met: results[li].Met, Time: results[li].Time}
		}
	}
	// Lowest lane first, so the error the caller sees is deterministic and
	// matches the scalar path's lowest-index JobError.
	for k, err := range lerrs {
		if err != nil {
			return nil, &sweep.LaneError{Lane: k, Err: err}
		}
	}
	return out, nil
}

// e1BatchRow evaluates one batched row of E1SearchScalingCfg: every target
// direction of one (d, r) cell through a single sim.SearchBatch call.
func e1BatchRow(grid sweep.Grid, dirs int, mc bool, cfg Config, indices []int, at func(int) sampler.Draws) ([]float64, error) {
	out := make([]float64, len(indices))
	met := make([]bool, len(indices))
	lerrs := make([]error, len(indices))
	keys := make([]cache.Key, len(indices))
	var lanes batch.Lanes
	laneOf := make([]int, 0, len(indices))
	for k, i := range indices {
		point := grid.Point(i / dirs)
		d, r := point[0], point[1]
		angle := 2*math.Pi*float64(i%dirs)/8 + 0.1
		if mc {
			angle = 2 * math.Pi * at(i).Float64(0)
		}
		target := geom.Polar(d, angle)
		bound := bounds.SearchTimeBound(d, r)
		opt := sim.Options{Horizon: 2*bound + 1000}
		keys[k] = cache.SearchKey("alg4", target, r, opt)
		if res, ok := cfg.Cache.Get(keys[k]); ok {
			out[k], met[k] = res.Time, res.Met
			continue
		}
		lanes.AddSearch(target, r, opt.Horizon)
		laneOf = append(laneOf, k)
	}
	if lanes.Len() > 0 {
		if cfg.OnBatch != nil {
			cfg.OnBatch(1, lanes.Len())
		}
		results, kerrs := sim.SearchBatch(algo.CumulativeSearch(), &lanes, sim.Options{Ctx: cfg.Ctx})
		for li, k := range laneOf {
			i := indices[k]
			if kerrs[li] != nil {
				point := grid.Point(i / dirs)
				lerrs[k] = fmt.Errorf("E1 d=%v r=%v: %w", point[0], point[1], kerrs[li])
				continue
			}
			cfg.Cache.Put(keys[k], results[li])
			out[k], met[k] = results[li].Time, results[li].Met
		}
	}
	for k, i := range indices {
		if lerrs[k] != nil {
			return nil, &sweep.LaneError{Lane: k, Err: lerrs[k]}
		}
		if !met[k] {
			point := grid.Point(i / dirs)
			return nil, &sweep.LaneError{Lane: k, Err: fmt.Errorf(
				"E1 d=%v r=%v dir %d: target not found", point[0], point[1], i%dirs)}
		}
	}
	return out, nil
}
