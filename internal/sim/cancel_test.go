package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// ticker is an infinite source of unit Wait segments at a fixed position:
// one merged interval per time unit, so interval counts are exact.
func ticker(at geom.Vec) trajectory.Source {
	wait := trajectory.FromSlice([]segment.Seg{(segment.Wait{At: at, Time: 1}).Seg()})
	return trajectory.Repeat(func(int) trajectory.Source { return wait })
}

// countCtx is a deterministic context: Err fails on its failAt-th call.
// The walks poll every ctxStride intervals, so the interval at which the
// walk stops is exact — no timing involved.
type countCtx struct{ polls, failAt int }

func (c *countCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countCtx) Done() <-chan struct{}       { return nil }
func (c *countCtx) Value(any) any               { return nil }
func (c *countCtx) Err() error {
	c.polls++
	if c.polls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestFirstMeetingCanceledMidWalk proves cancellation reaches the merged
// walk loop mid-flight: with a context that fails on its third poll, the
// walk processes exactly two strides of intervals and stops — far short of
// the million-interval horizon — and the error wraps both ErrCanceled and
// the context's cause.
func TestFirstMeetingCanceledMidWalk(t *testing.T) {
	a, b := ticker(geom.V(0, 0)), ticker(geom.V(10, 0))
	_, err := FirstMeetingFramed(a, referenceFrame, b, referenceFrame, 0.25, Options{Horizon: 1e6, Ctx: &countCtx{failAt: 3}})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// Polls happen at intervals 0, 256, 512, ...: the third poll is the
	// 512th interval, a hard proof the walk stopped there and not at the
	// 1e6-interval horizon.
	if want := "after 512 intervals"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	}

	// An attached-but-never-canceled context changes nothing: results are
	// bit-identical to the nil-context walk.
	plain, err := FirstMeetingFramed(ticker(geom.V(0, 0)), referenceFrame, ticker(geom.V(10, 0)), referenceFrame, 0.25, Options{Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := FirstMeetingFramed(ticker(geom.V(0, 0)), referenceFrame, ticker(geom.V(10, 0)), referenceFrame, 0.25, Options{Horizon: 1000, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if plain != ctxed {
		t.Fatalf("live context changed the result: %+v != %+v", ctxed, plain)
	}
}

// TestFirstGatheringCanceledMidWalk: the gathering walk polls Ctx on the
// pair walks' stride, so it too stops at the 512th interval.
func TestFirstGatheringCanceledMidWalk(t *testing.T) {
	frames := []segment.Frame{referenceFrame, frame.Reference().Frame(geom.V(10, 0))}
	_, _, _, err := FirstGathering(ticker(geom.Zero), frames, 0.25, Options{Horizon: 1e6, Ctx: &countCtx{failAt: 3}})
	if !errors.Is(err, ErrCanceled) || !strings.Contains(err.Error(), "after 512 intervals") {
		t.Fatalf("err = %v, want ErrCanceled after 512 intervals", err)
	}
}

// TestSearchCanceled: a pre-canceled context stops the search walk on its
// very first interval, whatever the horizon.
func TestSearchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(algo.CumulativeSearch(), geom.V(1e6, 0), 0.25, Options{Horizon: 1e12, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestRendezvousCanceled: the cancellation threads through the
// instance plumbing of Rendezvous, not just a bare FirstMeetingFramed.
func TestRendezvousCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := Instance{D: geom.V(1, 0), R: 0.25}
	in.Attrs.V, in.Attrs.Tau, in.Attrs.Chi = 1, 1, 1
	_, err := Rendezvous(algo.CumulativeSearch(), in, Options{Horizon: 1e12, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestBatchCanceled: the batched kernels observe cancellation too — every
// still-active lane of SearchBatch and RendezvousBatch fails with the
// canceled error instead of walking to its horizon.
func TestBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var ln batch.Lanes
	for i := 0; i < 4; i++ {
		ln.AddSearch(geom.V(1e6, float64(i)), 0.25, 1e12)
	}
	_, errs := SearchBatch(algo.CumulativeSearch(), &ln, Options{Ctx: ctx})
	for i, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("search lane %d: err = %v, want ErrCanceled", i, err)
		}
	}

	var rln batch.Lanes
	in := Instance{D: geom.V(1, 0), R: 0.25}
	in.Attrs.V, in.Attrs.Tau, in.Attrs.Chi = 1, 1, 1
	rln.AddRendezvous(in.Attrs, in.D, in.R, 1e12)
	_, rerrs := RendezvousBatch(algo.CumulativeSearch(), &rln, Options{Ctx: ctx})
	if !errors.Is(rerrs[0], ErrCanceled) {
		t.Fatalf("rendezvous lane: err = %v, want ErrCanceled", rerrs[0])
	}
}
