package sweep

import (
	"errors"
	"time"

	"repro/internal/sampler"
)

// LaneError attributes a batched-row failure to one lane, so
// RunBatchedSampled reports it as a JobError under the lane's dense job
// index, with the same surface text as the scalar path (both print only
// the underlying error).
type LaneError struct {
	// Lane is a position in the row function's indices slice.
	Lane int
	Err  error
}

func (e *LaneError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying lane error to errors.Is/As.
func (e *LaneError) Unwrap() error { return e.Err }

// RunBatchedSampled is the batched job kind: the dense index space [0, n)
// is split into contiguous rows of rowSize, and fn evaluates a chunk of
// one row's lanes per call — the shape the SoA batch kernels need, where
// every lane of a row shares one program stream. Chunks are claimed by the
// same loop as RunSampled's jobs, on the executor opt selects, and follow a
// deterministic plan (see plan): with one worker every call gets a whole
// row, with more a row late in the run may be split, so fn may receive
// part of a row.
//
// Each lane matches the RunSampled job of its index: it gets its draws
// through the at accessor, opt.Shard skips the lanes it does not own, and
// opt.Exchange serves recorded lanes and records computed ones, so scalar
// and batched runs recombine bit-identically. fn receives the dense indices
// of the lanes to compute and returns one result per index, in order; on
// failure it returns a *LaneError naming the position in indices.
func RunBatchedSampled[T any](n, rowSize int, fn func(indices []int, at func(i int) sampler.Draws) ([]T, error), opt Options) ([]T, error) {
	if fn == nil {
		return nil, errors.New("sweep: nil row function")
	}
	if rowSize < 1 {
		return nil, errors.New("sweep: batched row size must be at least 1")
	}
	results, err := newRun[T](n, opt)
	if err != nil {
		return nil, err
	}
	src, seed := opt.sampler(), opt.BaseSeed
	drawsAt := func(i int) sampler.Draws { return src.Draws(seed, i) }

	// The exchange and monitor apply per lane, inside the chunk.
	lanes, cuts := plan(n, rowSize, opt.Shard, opt.workers())
	err = schedule(len(cuts)-1, Shard{}, opt, func(c int) error {
		// The lanes to compute are compacted in place: each chunk owns its
		// stretch of lanes.
		indices := lanes[cuts[c]:cuts[c]:cuts[c+1]]
		for _, i := range lanes[cuts[c]:cuts[c+1]] {
			if v, ok := lookup[T](opt, i); ok {
				results[i] = v
				opt.Monitor.jobDone(0)
				continue
			}
			indices = append(indices, i)
		}
		if len(indices) == 0 {
			return nil
		}
		start := time.Now()
		vals, err := fn(indices, drawsAt)
		if err != nil {
			// Rewrite a lane position into its dense job index so the
			// caller-visible JobError is deterministic across row sizes.
			var le *LaneError
			if errors.As(err, &le) && le.Lane >= 0 && le.Lane < len(indices) {
				return &LaneError{Lane: indices[le.Lane], Err: le.Err}
			}
			return &LaneError{Lane: indices[0], Err: err}
		}
		if len(vals) != len(indices) {
			return &LaneError{Lane: indices[0],
				Err: errors.New("sweep: batched row returned wrong result count")}
		}
		perLane := time.Since(start) / time.Duration(len(indices))
		for k, i := range indices {
			results[i] = vals[k]
			record(opt, i, vals[k])
			opt.Monitor.jobDone(perLane)
		}
		return nil
	})
	if err != nil {
		// The lowest failed chunk holds the lowest failed lane; report it.
		var je *JobError
		var le *LaneError
		if errors.As(err, &je) && errors.As(je.Err, &le) {
			return results, &JobError{Index: le.Lane, Err: le.Err}
		}
	}
	return results, err
}

// plan cuts the lanes sh owns in [0, n) into the chunks of a batched run.
// It returns every owned index in order and the chunk bounds: chunk c is
// lanes[cuts[c]:cuts[c+1]], and no chunk crosses a row of rowSize. One
// worker gets whole rows. More get guided chunks of
// max(8, ⌈remaining lanes / (2·workers)⌉), cut at row ends, so early rows
// stay whole and a heavy row near the end is shared by the workers.
func plan(n, rowSize int, sh Shard, workers int) (lanes, cuts []int) {
	owned := sh.CountIn(n)
	next := func(k int) int { // the end of the chunk starting at ordinal k
		end := sh.CountIn(min((sh.nth(k)/rowSize+1)*rowSize, n))
		if workers > 1 {
			end = min(end, k+max(8, (owned-k+2*workers-1)/(2*workers)))
		}
		return end
	}
	chunks := 0
	for k := 0; k < owned; k = next(k) {
		chunks++
	}
	buf := make([]int, owned+chunks+1)
	lanes, cuts = buf[:owned], buf[owned:owned]
	for k := range lanes {
		lanes[k] = sh.nth(k)
	}
	for k := 0; k < owned; k = next(k) {
		cuts = append(cuts, k)
	}
	return lanes, append(cuts, owned)
}
