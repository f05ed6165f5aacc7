package sweep

import (
	"encoding/json"
	"errors"
	"time"

	"repro/internal/sampler"
)

// LaneError attributes a batched-row failure to one lane. Row functions
// return it so RunBatchedSampled can report the failure under the lane's dense job
// index — keeping batched error reporting deterministic and its surface text
// identical to the scalar path (JobError and LaneError both print only the
// underlying error).
type LaneError struct {
	// Lane is a lane position within the row function's indices slice (what
	// a row fn reports), rewritten to the dense job index by RunBatchedSampled
	// before the error escapes.
	Lane int
	Err  error
}

func (e *LaneError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying lane error to errors.Is/As.
func (e *LaneError) Unwrap() error { return e.Err }

// RunBatchedSampled is the batched job kind: the dense index space [0, n)
// is split into contiguous rows of rowSize, and fn evaluates one whole row
// per call — the shape the SoA batch kernels need, where every lane of a
// row shares one program stream. Rows are scheduled like ordinary jobs
// (opt.Workers / opt.Pool), so worker parallelism composes with lane
// parallelism within a row.
//
// The per-lane contract matches RunSampled job for job: lane i obtains its
// opt.Sampler draw handle, addressed by (opt.BaseSeed, i), through the at
// accessor; opt.Shard skips the indices it does not own, and opt.Exchange
// serves recorded lanes and records computed ones — so scalar and batched
// runs (and any mix across a sharded fleet) recombine bit-identically
// under any sampler kind. fn receives the dense indices of the lanes it
// must compute (owned, not served) and must return one result per index,
// in order; on failure it should return a *LaneError naming the offending
// position in indices.
func RunBatchedSampled[T any](n, rowSize int, fn func(indices []int, at func(i int) sampler.Draws) ([]T, error), opt Options) ([]T, error) {
	if n < 0 {
		return nil, errors.New("sweep: negative job count")
	}
	if fn == nil {
		return nil, errors.New("sweep: nil row function")
	}
	if rowSize < 1 {
		return nil, errors.New("sweep: batched row size must be at least 1")
	}
	if err := opt.Shard.Validate(); err != nil {
		return nil, err
	}
	results := make([]T, n)
	if opt.Monitor != nil {
		opt.Monitor.add(opt.Shard.CountIn(n))
	}
	src := opt.sampler()
	drawsAt := func(i int) sampler.Draws { return src.Draws(opt.BaseSeed, i) }

	rows := (n + rowSize - 1) / rowSize
	rowFn := func(ri int, _ sampler.Draws) (struct{}, error) {
		lo := ri * rowSize
		hi := lo + rowSize
		if hi > n {
			hi = n
		}
		indices := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if !opt.Shard.Owns(i) {
				continue
			}
			if x := opt.Exchange; x != nil {
				if raw, ok := x.Lookup(opt.Batch, i); ok {
					var v T
					if json.Unmarshal(raw, &v) == nil {
						results[i] = v
						if opt.Monitor != nil {
							opt.Monitor.jobDone(0)
						}
						continue
					}
				}
			}
			indices = append(indices, i)
		}
		if len(indices) == 0 {
			return struct{}{}, nil
		}
		startT := time.Now()
		vals, err := fn(indices, drawsAt)
		if err != nil {
			// Rewrite a lane position into its dense job index so the
			// caller-visible JobError is deterministic across row sizes.
			var le *LaneError
			if errors.As(err, &le) && le.Lane >= 0 && le.Lane < len(indices) {
				return struct{}{}, &LaneError{Lane: indices[le.Lane], Err: le.Err}
			}
			return struct{}{}, &LaneError{Lane: indices[0], Err: err}
		}
		if len(vals) != len(indices) {
			return struct{}{}, &LaneError{Lane: indices[0],
				Err: errors.New("sweep: batched row returned wrong result count")}
		}
		perLane := time.Since(startT) / time.Duration(len(indices))
		for k, i := range indices {
			results[i] = vals[k]
			if x := opt.Exchange; x != nil {
				if raw, ok := roundTrips(vals[k]); ok {
					x.Record(opt.Batch, i, raw)
				}
			}
			if opt.Monitor != nil {
				opt.Monitor.jobDone(perLane)
			}
		}
		return struct{}{}, nil
	}

	// The inner run handles only scheduling: shard, exchange, and monitor
	// accounting happened above at lane granularity, and the row-level
	// draws are ignored (lanes draw theirs through the accessor).
	_, err := RunSampled(rows, rowFn, Options{Workers: opt.Workers, Pool: opt.Pool})
	if err != nil {
		var je *JobError
		var le *LaneError
		if errors.As(err, &je) && errors.As(je.Err, &le) {
			return results, &JobError{Index: le.Lane, Err: le.Err}
		}
		return results, err
	}
	return results, nil
}
