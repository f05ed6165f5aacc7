package sweep

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sampler"
)

// batchedRowFn is a reference row function: lane i yields 1000*i plus its
// first draw, so results are index- and seed-sensitive like real jobs.
func batchedRowFn(indices []int, at func(i int) sampler.Draws) ([]float64, error) {
	out := make([]float64, len(indices))
	for k, i := range indices {
		out[k] = float64(1000*i) + at(i).Float64(0)
	}
	return out, nil
}

func TestRunBatchedMatchesRun(t *testing.T) {
	const n = 37
	want, err := RunSampled(n, func(i int, d sampler.Draws) (float64, error) {
		return float64(1000*i) + d.Float64(0), nil
	}, Options{BaseSeed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rowSize := range []int{1, 4, 10, 37, 64} {
		for _, workers := range []int{1, 4} {
			got, err := RunBatchedSampled(n, rowSize, batchedRowFn,
				Options{BaseSeed: 11, Workers: workers})
			if err != nil {
				t.Fatalf("rowSize=%d workers=%d: %v", rowSize, workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rowSize=%d workers=%d: job %d: got %v, want %v",
						rowSize, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRunBatchedShardSkips(t *testing.T) {
	const n = 20
	sh := Shard{Index: 1, Count: 3}
	var mon Monitor
	got, err := RunBatchedSampled(n, 6, func(indices []int, at func(i int) sampler.Draws) ([]float64, error) {
		for _, i := range indices {
			if !sh.Owns(i) {
				t.Errorf("row fn received unowned index %d", i)
			}
		}
		return batchedRowFn(indices, at)
	}, Options{BaseSeed: 3, Shard: sh, Monitor: &mon})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if sh.Owns(i) == (got[i] == 0) {
			t.Fatalf("job %d: owned=%v but result %v", i, sh.Owns(i), got[i])
		}
	}
	if done, total := mon.Progress(); total != int64(sh.CountIn(n)) || done != int64(sh.CountIn(n)) {
		t.Fatalf("monitor %d/%d, want %d/%d", done, total, sh.CountIn(n), sh.CountIn(n))
	}
}

// TestRunBatchedExchange: lanes recorded by a scalar sharded run are served
// to a batched merge run (and vice versa) — the exchange namespace is shared
// at lane granularity.
func TestRunBatchedExchange(t *testing.T) {
	const n = 15
	x := newMapExchange()
	scalarFn := func(i int, d sampler.Draws) (float64, error) {
		return float64(1000*i) + d.Float64(0), nil
	}
	// Shard 0/2 runs scalar, recording its lanes.
	if _, err := RunSampled(n, scalarFn, Options{BaseSeed: 7, Batch: "b", Exchange: x,
		Shard: Shard{Index: 0, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	// Shard 1/2 runs batched, recording the rest.
	if _, err := RunBatchedSampled(n, 4, batchedRowFn, Options{BaseSeed: 7, Batch: "b", Exchange: x,
		Shard: Shard{Index: 1, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	// The batched merge run must be served entirely from the exchange.
	got, err := RunBatchedSampled(n, 4, func(indices []int, at func(i int) sampler.Draws) ([]float64, error) {
		t.Errorf("merge run recomputed lanes %v", indices)
		return batchedRowFn(indices, at)
	}, Options{BaseSeed: 7, Batch: "b", Exchange: x})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSampled(n, scalarFn, Options{BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRunBatchedLaneError(t *testing.T) {
	const n = 12
	inner := errors.New("lane blew up")
	_, err := RunBatchedSampled(n, 5, func(indices []int, _ func(i int) sampler.Draws) ([]float64, error) {
		for k, i := range indices {
			if i == 7 {
				return nil, &LaneError{Lane: k, Err: inner}
			}
		}
		return make([]float64, len(indices)), nil
	}, Options{Workers: 2})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("got %T (%v), want *JobError", err, err)
	}
	if je.Index != 7 {
		t.Fatalf("JobError.Index = %d, want dense index 7", je.Index)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("error chain lost the inner error: %v", err)
	}
	if je.Error() != inner.Error() {
		t.Fatalf("surface text %q, want %q", je.Error(), inner.Error())
	}
}

func TestRunBatchedValidation(t *testing.T) {
	if _, err := RunBatchedSampled(-1, 4, batchedRowFn, Options{}); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := RunBatchedSampled(4, 0, batchedRowFn, Options{}); err == nil {
		t.Fatal("rowSize 0 accepted")
	}
	if _, err := RunBatchedSampled[float64](4, 2, nil, Options{}); err == nil {
		t.Fatal("nil fn accepted")
	}
	if _, err := RunBatchedSampled(4, 2, batchedRowFn, Options{Shard: Shard{Index: 5, Count: 2}}); err == nil {
		t.Fatal("bad shard accepted")
	}
	wrong := func(indices []int, _ func(i int) sampler.Draws) ([]float64, error) {
		return make([]float64, len(indices)+1), nil
	}
	if _, err := RunBatchedSampled(4, 2, wrong, Options{}); err == nil {
		t.Fatal("wrong result count accepted")
	}
	// Empty runs are fine.
	if got, err := RunBatchedSampled(0, 3, batchedRowFn, Options{}); err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestRunBatchedLowestIndexErrorWins(t *testing.T) {
	// Two failing rows: the error surfaced must be the lowest dense index,
	// exactly like Run's lowest-index JobError guarantee.
	for _, workers := range []int{1, 4} {
		_, err := RunBatchedSampled(20, 3, func(indices []int, _ func(i int) sampler.Draws) ([]float64, error) {
			for k, i := range indices {
				if i == 5 || i == 16 {
					return nil, &LaneError{Lane: k, Err: fmt.Errorf("lane %d failed", i)}
				}
			}
			return make([]float64, len(indices)), nil
		}, Options{Workers: workers})
		var je *JobError
		if !errors.As(err, &je) || je.Index != 5 {
			t.Fatalf("workers=%d: got %v, want JobError at index 5", workers, err)
		}
	}
}
