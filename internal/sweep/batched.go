package sweep

import (
	"context"
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
// is split into contiguous rows of rowSize, and fn evaluates one whole row
// per call — the shape the SoA batch kernels need, where every lane of a
// row shares one program stream. Rows are claimed by the same loop as
// RunSampled's jobs, on the executor opt selects.
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

	// The shard, exchange and monitor apply per lane, inside the row.
	rows := (n + rowSize - 1) / rowSize
	err = schedule(context.Background(), rows, Shard{}, opt, func(ri int) error {
		lo := ri * rowSize
		hi := min(lo+rowSize, n)
		indices := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if !opt.Shard.Owns(i) {
				continue
			}
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
		// The lowest failed row holds the lowest failed lane; report it.
		var je *JobError
		var le *LaneError
		if errors.As(err, &je) && errors.As(je.Err, &le) {
			return results, &JobError{Index: le.Lane, Err: le.Err}
		}
	}
	return results, err
}
