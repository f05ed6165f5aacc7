package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sampler"
)

// TestPooledRunMatchesPrivate: a batch on a shared pool must reproduce the
// private-goroutine results bit for bit, including the RNG streams.
func TestPooledRunMatchesPrivate(t *testing.T) {
	job := func(i int, d sampler.Draws) (float64, error) {
		sum := float64(i)
		for k := 0; k < 10; k++ {
			sum += d.Float64(k)
		}
		return sum, nil
	}
	want, err := RunSampled(64, job, Options{Workers: 1, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		got, err := RunSampled(64, job, Options{BaseSeed: 7, Pool: p})
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pool %d workers: result[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPoolSharedAcrossBatches: concurrent batches drawing from one pool
// each get their full, correctly ordered results, and the pool's worker
// budget is a global cap on job concurrency.
func TestPoolSharedAcrossBatches(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var inFlight, peak atomic.Int64
	job := func(i int, _ sampler.Draws) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			hi := peak.Load()
			if cur <= hi || peak.CompareAndSwap(hi, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return i * i, nil
	}
	var wg sync.WaitGroup
	outs := make([][]int, 4)
	errs := make([]error, 4)
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			outs[b], errs[b] = RunSampled(20, job, Options{Pool: p})
		}(b)
	}
	wg.Wait()
	for b := 0; b < 4; b++ {
		if errs[b] != nil {
			t.Fatal(errs[b])
		}
		for i, v := range outs[b] {
			if v != i*i {
				t.Fatalf("batch %d slot %d = %d, want %d", b, i, v, i*i)
			}
		}
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeded the pool cap %d", got, workers)
	}
}

// TestPooledRunErrorAborts: a failing job aborts its own batch (lowest
// failed index reported) without poisoning the pool for later batches.
func TestPooledRunErrorAborts(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("boom")
	var executed atomic.Int64
	_, err := RunSampled(1000, func(i int, _ sampler.Draws) (int, error) {
		executed.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("job 3: %w", boom)
		}
		time.Sleep(50 * time.Microsecond)
		return i, nil
	}, Options{Pool: p})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Index != 3 {
		t.Fatalf("err = %#v, want JobError{Index: 3}", err)
	}
	if executed.Load() == 1000 {
		t.Error("all jobs executed despite the early failure")
	}
	// The pool must still serve a fresh batch.
	got, err := RunSampled(8, func(i int, _ sampler.Draws) (int, error) { return i + 1, nil }, Options{Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("post-failure batch slot %d = %d", i, v)
		}
	}
}

// TestPooledRunCancellation: context cancellation stops a pooled batch and
// reports ErrCanceled.
func TestPooledRunCancellation(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	_, err := RunSampledContext(ctx, 100_000, func(i int, _ sampler.Draws) (int, error) {
		if executed.Add(1) == 5 {
			cancel()
		}
		return i, nil
	}, Options{Pool: p})
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if executed.Load() == 100_000 {
		t.Error("pooled run completed despite cancellation")
	}
}

// TestPooledRunCancelAfterFeed: when the context ends after the run was
// handed to the pool, the worker's next claim sees it and leaves job 1
// unclaimed; that must surface as ErrCanceled, never as success with a
// zero-valued slot. Repeated so a scheduling-dependent answer would show.
func TestPooledRunCancelAfterFeed(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunSampledContext(ctx, 2, func(i int, _ sampler.Draws) (int, error) {
			if i == 0 {
				cancel()
			}
			return i, nil
		}, Options{Pool: p})
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("iteration %d: err = %v, want ErrCanceled", iter, err)
		}
	}
}

// TestMonitorCounts: the monitor sees every job of every batch it is
// attached to, and the durations are ready for summarising.
func TestMonitorCounts(t *testing.T) {
	m := &Monitor{}
	var changes atomic.Int64
	m.OnChange = func(done, total int64) { changes.Add(1) }
	opt := Options{Workers: 2, Monitor: m}
	if _, err := RunSampled(10, func(i int, _ sampler.Draws) (int, error) { return i, nil }, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSampled(5, func(i int, _ sampler.Draws) (int, error) { return i, nil }, opt); err != nil {
		t.Fatal(err)
	}
	done, total := m.Progress()
	if done != 15 || total != 15 {
		t.Errorf("progress %d/%d, want 15/15", done, total)
	}
	if n := len(m.Durations()); n != 15 {
		t.Errorf("%d durations recorded, want 15", n)
	}
	if changes.Load() != 15 {
		t.Errorf("OnChange fired %d times, want 15", changes.Load())
	}
}
