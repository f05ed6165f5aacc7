package sweep

import (
	"errors"
	"fmt"
	"sync/atomic"
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
	inner := errors.New("lane blew up")
	// Rows of 5 stay whole on 2 workers; the 64-lane row splits, and lane
	// 20 falls in its second chunk, [16, 28).
	for _, c := range []struct{ n, rowSize, failing, workers, chunk int }{
		{12, 5, 7, 2, 0},
		{64, 64, 20, 1, 0},
		{64, 64, 20, 2, 1},
	} {
		requireChunkOf(t, c.n, c.rowSize, c.workers, c.failing, c.chunk)
		_, err := RunBatchedSampled(c.n, c.rowSize, func(indices []int, _ func(i int) sampler.Draws) ([]float64, error) {
			for k, i := range indices {
				if i == c.failing {
					return nil, &LaneError{Lane: k, Err: inner}
				}
			}
			return make([]float64, len(indices)), nil
		}, Options{Workers: c.workers})
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("%+v: got %T (%v), want *JobError", c, err, err)
		}
		if je.Index != c.failing {
			t.Fatalf("%+v: JobError.Index = %d, want dense index %d", c, je.Index, c.failing)
		}
		if !errors.Is(err, inner) {
			t.Fatalf("%+v: error chain lost the inner error: %v", c, err)
		}
		if je.Error() != inner.Error() {
			t.Fatalf("%+v: surface text %q, want %q", c, je.Error(), inner.Error())
		}
	}
}

// requireChunkOf fails unless lane sits in chunk want of its row under the
// plan of an unsharded run.
func requireChunkOf(t *testing.T, n, rowSize, workers, lane, want int) {
	t.Helper()
	lanes, cuts := plan(n, rowSize, Shard{}, workers)
	row := lane / rowSize
	nth := 0
	for c := 0; c+1 < len(cuts); c++ {
		first := lanes[cuts[c]]
		if first/rowSize != row {
			continue
		}
		if lane >= first && lane <= lanes[cuts[c+1]-1] {
			if nth != want {
				t.Fatalf("lane %d is in chunk %d of its row, want chunk %d (cuts %v)", lane, nth, want, cuts)
			}
			return
		}
		nth++
	}
	t.Fatalf("lane %d is in no chunk (cuts %v)", lane, cuts)
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
	// exactly like Run's lowest-index JobError guarantee — also when the
	// rows of 64 split into chunks and the lower failure sits in the
	// second chunk of its row ([32, 56) of row 0 on 2 workers).
	for _, c := range []struct{ n, rowSize, lo, hi, chunk int }{{20, 3, 5, 16, 0}, {128, 64, 40, 100, 1}} {
		requireChunkOf(t, c.n, c.rowSize, 2, c.lo, c.chunk)
		for _, workers := range []int{1, 2, 4} {
			_, err := RunBatchedSampled(c.n, c.rowSize, func(indices []int, _ func(i int) sampler.Draws) ([]float64, error) {
				for k, i := range indices {
					if i == c.lo || i == c.hi {
						return nil, &LaneError{Lane: k, Err: fmt.Errorf("lane %d failed", i)}
					}
				}
				return make([]float64, len(indices)), nil
			}, Options{Workers: workers})
			var je *JobError
			if !errors.As(err, &je) || je.Index != c.lo || err.Error() != fmt.Sprintf("lane %d failed", c.lo) {
				t.Fatalf("%+v workers=%d: got %v, want JobError at index %d", c, workers, err, c.lo)
			}
		}
	}
}

// TestPlanChunks is the property test of the batched plan: every owned
// lane is in exactly one chunk, in order; no chunk crosses a row; no chunk
// is smaller than min(8, what is left of its row); and one worker gets
// whole rows.
func TestPlanChunks(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 100, 576, 3584} {
		for _, rowSize := range []int{1, 3, 8, 64, 1000} {
			for _, sh := range []Shard{{}, {Index: 1, Count: 3}} {
				for _, workers := range []int{1, 2, 3, 8} {
					lanes, cuts := plan(n, rowSize, sh, workers)
					label := fmt.Sprintf("n=%d rowSize=%d shard=%v workers=%d", n, rowSize, sh, workers)
					if len(lanes) != sh.CountIn(n) || cuts[0] != 0 || cuts[len(cuts)-1] != len(lanes) {
						t.Fatalf("%s: %d lanes, cuts %v", label, len(lanes), cuts)
					}
					for k, i := range lanes {
						if i != sh.nth(k) {
							t.Fatalf("%s: lane %d is %d, want owned index %d", label, k, i, sh.nth(k))
						}
					}
					for c := 0; c+1 < len(cuts); c++ {
						chunk := lanes[cuts[c]:cuts[c+1]]
						if len(chunk) == 0 {
							t.Fatalf("%s: chunk %d is empty", label, c)
						}
						row := chunk[0] / rowSize
						if chunk[len(chunk)-1]/rowSize != row {
							t.Fatalf("%s: chunk %d %v crosses a row", label, c, chunk)
						}
						// Owned lanes of the row from this chunk on.
						left := sh.CountIn(min((row+1)*rowSize, n)) - cuts[c]
						if len(chunk) < min(8, left) {
							t.Fatalf("%s: chunk %d has %d lanes, %d left in its row", label, c, len(chunk), left)
						}
						whole := c == 0 || lanes[cuts[c]-1]/rowSize != row
						if workers == 1 && (len(chunk) != left || !whole) {
							t.Fatalf("%s: chunk %d %v is not a whole row", label, c, chunk)
						}
					}
				}
			}
		}
	}
}

// TestRunBatchedSplitRowsExchangeMonitor: with rows split into chunks, the
// Exchange serves and records each lane once, the Monitor counts each lane
// once, fn computes each unrecorded lane once, and every result matches the
// scalar run.
func TestRunBatchedSplitRowsExchangeMonitor(t *testing.T) {
	const n, rowSize = 192, 64
	scalar := func(i int, d sampler.Draws) (float64, error) {
		return float64(1000*i) + d.Float64(0), nil
	}
	want, err := RunSampled(n, scalar, Options{BaseSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	recorded := Shard{Index: 0, Count: 3}
	p := NewPool(2)
	defer p.Close()
	for _, exec := range []Options{{Workers: 2}, {Workers: 3}, {Pool: p}} {
		// A scalar run records a third of the lanes first.
		x := newMapExchange()
		if _, err := RunSampled(n, scalar, Options{BaseSeed: 9, Batch: "b", Exchange: x, Shard: recorded}); err != nil {
			t.Fatal(err)
		}
		x.recorded = 0
		opt := exec
		opt.BaseSeed, opt.Batch, opt.Exchange = 9, "b", x
		var mon Monitor
		opt.Monitor = &mon
		var calls atomic.Int64
		runs := make([]atomic.Int64, n)
		got, err := RunBatchedSampled(n, rowSize, func(indices []int, at func(i int) sampler.Draws) ([]float64, error) {
			calls.Add(1)
			for _, i := range indices {
				runs[i].Add(1)
			}
			return batchedRowFn(indices, at)
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d pool=%v", exec.Workers, exec.Pool != nil)
		if calls.Load() <= n/rowSize {
			t.Fatalf("%s: %d row calls for %d rows; the rows must split", label, calls.Load(), n/rowSize)
		}
		for i := range want {
			wantRuns := int64(1)
			if recorded.Owns(i) {
				wantRuns = 0
			}
			if got[i] != want[i] || runs[i].Load() != wantRuns {
				t.Fatalf("%s: lane %d: result %v ran %d times, want %v ran %d times", label, i, got[i], runs[i].Load(), want[i], wantRuns)
			}
		}
		if served := recorded.CountIn(n); x.served != served || x.recorded != n-served || len(x.recs) != n {
			t.Fatalf("%s: exchange served %d and recorded %d lanes (%d keys), want %d, %d and %d", label, x.served, x.recorded, len(x.recs), served, n-served, n)
		}
		if done, total := mon.Progress(); done != n || total != n || len(mon.Durations()) != n {
			t.Fatalf("%s: monitor %d/%d with %d durations, want %d of each", label, done, total, len(mon.Durations()), n)
		}
	}
}

// TestRunBatchedAllocs pins what scheduling a batched run costs in
// allocations, with a row function that allocates nothing: the plan is one
// allocation however many rows and chunks there are, so one 64-lane row
// (7 chunks on 2 workers) and four (13 chunks) cost the same, within 5
// serially and 8 on 2 workers.
func TestRunBatchedAllocs(t *testing.T) {
	const rowSize = 64
	zeros := make([]int, 4*rowSize)
	row := func(indices []int, _ func(i int) sampler.Draws) ([]int, error) {
		return zeros[:len(indices)], nil
	}
	allocs := func(n, workers int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := RunBatchedSampled(n, rowSize, row, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		workers int
		ceiling float64
	}{{1, 5}, {2, 8}} {
		one, four := allocs(rowSize, c.workers), allocs(4*rowSize, c.workers)
		if one > c.ceiling || four != one {
			t.Errorf("RunBatchedSampled with %d workers: %v allocs for one row, %v for four; want equal and ≤ %v", c.workers, one, four, c.ceiling)
		}
	}
}
