package sim

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/feasibility"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// tapeLane is one rendezvous lane of a tape test, with its horizon.
type tapeLane struct {
	in      Instance
	horizon float64
}

// heavyRowLanes returns n lanes of the grid row v = 0.8, d = 2 under
// Algorithm 4: the displacement direction varies per lane and every lane
// walks thousands of intervals, so the tape crosses many pages while the
// lanes read it.
func heavyRowLanes(n int) []tapeLane {
	lanes := make([]tapeLane, n)
	for k := range lanes {
		in := Instance{
			Attrs: frame.Attributes{V: 0.8, Tau: 1, Chi: frame.CCW},
			D:     geom.Polar(2, 2*math.Pi*float64(k)/float64(n)+0.1),
			R:     0.25,
		}
		lanes[k] = tapeLane{in, 4 * feasibility.TimeBound(in.Attrs, 2, in.R)}
	}
	return lanes
}

func lanesOf(ls []tapeLane) *batch.Lanes {
	var ln batch.Lanes
	for _, l := range ls {
		ln.AddRendezvous(l.in.Attrs, l.in.D, l.in.R, l.horizon)
	}
	return &ln
}

// walkChunks walks the lanes in chunks cut at cuts (ascending, within
// [0, len(lanes)]; a chunk may be empty) on one tape, every chunk on its own goroutine, and
// returns every lane's result and error in lane order. optOf gives each
// chunk's options.
func walkChunks(tp *Tape, lanes []tapeLane, cuts []int, optOf func(chunk int) Options) ([]Result, []error) {
	bounds := append(append([]int{0}, cuts...), len(lanes))
	results := make([]Result, len(lanes))
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for c := 0; c+1 < len(bounds); c++ {
		lo, hi := bounds[c], bounds[c+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, es := tp.Rendezvous(lanesOf(lanes[lo:hi]), optOf(c))
			copy(results[lo:hi], res)
			copy(errs[lo:hi], es)
		}()
	}
	wg.Wait()
	return results, errs
}

// requireLanesMatch fails unless every lane's result and error match the
// scalar Rendezvous over mk() under the lane's context, bit for bit.
func requireLanesMatch(t *testing.T, label string, mk func() trajectory.Source, lanes []tapeLane, got []Result, errs []error, ctxOf func(lane int) context.Context) {
	t.Helper()
	for k, l := range lanes {
		want, wantErr := Rendezvous(mk(), l.in, Options{Horizon: l.horizon, Ctx: ctxOf(k)})
		if (errs[k] == nil) != (wantErr == nil) || (wantErr != nil && errs[k].Error() != wantErr.Error()) {
			t.Fatalf("%s lane %d: err %v, want %v", label, k, errs[k], wantErr)
		}
		if wantErr == nil {
			requireBitIdentical(t, label, got[k], want)
		}
	}
}

// TestTapeConcurrentLanes splits the lanes of one row into chunks and walks
// them from several goroutines on one Tape: every lane equals the private-
// tape RendezvousBatch and the scalar Rendezvous, bit for bit, on a long
// infinite program, on a finite one that runs out under the walks, and
// with one chunk canceled.
func TestTapeConcurrentLanes(t *testing.T) {
	noCtx := func(int) context.Context { return nil }
	plain := func(int) Options { return Options{} }

	t.Run("heavy row", func(t *testing.T) {
		lanes := heavyRowLanes(16)
		tp := NewTape(algo.CumulativeSearch())
		got, errs := walkChunks(tp, lanes, []int{4, 7, 12}, plain)
		private, privErrs := RendezvousBatch(algo.CumulativeSearch(), lanesOf(lanes), Options{})
		for k := range lanes {
			if errs[k] != nil || privErrs[k] != nil {
				t.Fatalf("lane %d: shared err %v, private err %v", k, errs[k], privErrs[k])
			}
			if got[k].Intervals < 1000 {
				t.Fatalf("lane %d walked %d intervals; the row must be a long one", k, got[k].Intervals)
			}
			requireBitIdentical(t, "shared vs private tape", got[k], private[k])
		}
		requireLanesMatch(t, "shared vs scalar", algo.CumulativeSearch, lanes, got, errs, noCtx)
	})

	t.Run("finite program", func(t *testing.T) {
		mk := func() trajectory.Source { return trajectory.Truncate(algo.CumulativeSearch(), 300) }
		lanes := heavyRowLanes(12)
		tp := NewTape(mk())
		got, errs := walkChunks(tp, lanes, []int{3, 6, 9}, plain)
		if !tp.done || !slices.ContainsFunc(got, func(r Result) bool { return !r.Met }) {
			t.Fatal("the program did not run out under the walks")
		}
		requireLanesMatch(t, "finite", mk, lanes, got, errs, noCtx)
	})

	t.Run("canceled chunk", func(t *testing.T) {
		lanes := heavyRowLanes(12)
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		const dead = 1 // chunk 1 holds lanes [4, 8)
		optOf := func(c int) Options {
			if c == dead {
				return Options{Ctx: canceled}
			}
			return Options{}
		}
		ctxOf := func(k int) context.Context {
			if k >= 4 && k < 8 {
				return canceled
			}
			return nil
		}
		tp := NewTape(algo.CumulativeSearch())
		got, errs := walkChunks(tp, lanes, []int{4, 8}, optOf)
		for k := range lanes {
			if ctxOf(k) != nil && !errors.Is(errs[k], ErrCanceled) {
				t.Fatalf("lane %d of the canceled chunk: err %v, want ErrCanceled", k, errs[k])
			}
		}
		requireLanesMatch(t, "canceled chunk", algo.CumulativeSearch, lanes, got, errs, ctxOf)
	})
}

// pageCaps reports the capacity of every page the tape has allocated.
func (tp *Tape) pageCaps() []int {
	var caps []int
	for _, p := range tp.pages {
		if p != nil {
			caps = append(caps, cap(p))
		}
	}
	return caps
}

// TestTapePages pins the page layout: every segment index below tapeLen
// has one slot, inside its page; page 0 holds 64 segments and every later
// page as many as precede it, so the tapePages pages end at tapeLen; and a
// short row's tape allocates a single 64-segment page — a tape never costs
// a short row more than the segments it reads, rounded up to one small
// page.
func TestTapePages(t *testing.T) {
	prevPage, prevOff, pageStart := 0, -1, 0
	for i := 0; i < tapeLen; i++ {
		page, off := tapeSlot(i)
		if page == prevPage+1 && off == 0 {
			if want := max(pageStart, 1<<tapeShift); prevOff+1 != want {
				t.Fatalf("page %d holds %d segments, want %d", prevPage, prevOff+1, want)
			}
			pageStart = i
		} else if page != prevPage || off != prevOff+1 {
			t.Fatalf("segment %d: page %d offset %d after page %d offset %d", i, page, off, prevPage, prevOff)
		}
		prevPage, prevOff = page, off
	}
	if prevPage != tapePages-1 || prevOff+1 != pageStart {
		t.Fatalf("the tape ends on page %d after %d of its segments, want page %d full at %d", prevPage, prevOff+1, tapePages-1, pageStart)
	}

	// A short row: v = 1/2, d = 1 meets within a few dozen intervals.
	var ln batch.Lanes
	for k := 0; k < 64; k++ {
		ln.AddRendezvous(frame.Attributes{V: 0.5, Tau: 1, Chi: frame.CCW},
			geom.Polar(1, 2*math.Pi*float64(k)/64), 0.25, 1e3)
	}
	tp := NewTape(algo.CumulativeSearch())
	res, errs := tp.Rendezvous(&ln, Options{})
	for k := range res {
		if errs[k] != nil || !res[k].Met || res[k].Intervals > 1<<tapeShift {
			t.Fatalf("lane %d: %+v, err %v: want a meeting within %d intervals", k, res[k], errs[k], 1<<tapeShift)
		}
	}
	if caps := tp.pageCaps(); !slices.Equal(caps, []int{1 << tapeShift}) {
		t.Fatalf("short row tape pages %v, want one page of %d segments", caps, 1<<tapeShift)
	}

	// A long row records no more than twice what it reads.
	lanes := heavyRowLanes(2)
	long := NewTape(algo.CumulativeSearch())
	long.Rendezvous(lanesOf(lanes), Options{})
	recorded := 0
	for _, c := range long.pageCaps() {
		recorded += c
	}
	if n := int(long.n.Load()); recorded > 2*n || n < 1000 {
		t.Fatalf("long row: %d segments recorded in pages of %d in total %v", n, recorded, long.pageCaps())
	}
}

// TestTapeOutrunLanes walks lanes past the end of the tape: infeasible
// v = 1 lanes (Theorem 4) that never meet, so each walks to its horizon,
// well past tapeLen segments, in two chunks on two goroutines. With φ = 0
// the robots keep their initial gap; with χ = −1 R′ mirrors R across the
// axis at angle φ/2, so a displacement along that axis is never closed.
// Every lane equals the scalar Rendezvous bit for bit, and the tape holds
// exactly tapeLen segments however far the lanes walk.
func TestTapeOutrunLanes(t *testing.T) {
	const horizon = 3e4
	var lanes []tapeLane
	for k := 0; k < 3; k++ {
		dist, phi := 1+float64(k)/2, 0.7*float64(k)
		lanes = append(lanes,
			tapeLane{Instance{Attrs: frame.Attributes{V: 1, Tau: 1, Chi: frame.CCW}, D: geom.Polar(dist, phi+0.3), R: 0.25}, horizon},
			tapeLane{Instance{Attrs: frame.Attributes{V: 1, Tau: 1, Phi: phi, Chi: frame.CW}, D: geom.Polar(dist, phi/2), R: 0.25}, horizon})
	}
	tp := NewTape(algo.CumulativeSearch())
	got, errs := walkChunks(tp, lanes, []int{len(lanes) / 2}, func(int) Options { return Options{} })
	for k, r := range got {
		if errs[k] != nil || r.Met || r.Intervals <= tapeLen {
			t.Fatalf("lane %d: %+v, err %v: want no meeting after more than %d intervals", k, r, errs[k], tapeLen)
		}
	}
	requireLanesMatch(t, "outrun", algo.CumulativeSearch, lanes, got, errs, func(int) context.Context { return nil })
	if n := tp.n.Load(); n != tapeLen {
		t.Fatalf("the tape published %d segments, want %d", n, tapeLen)
	}
}

// TestSegmentSizes pins the per-segment footprint: a segment holds its
// payload and speed-modulation dilation only (a robot's frame is placement
// state), and a tape entry adds just its raw duration and length.
func TestSegmentSizes(t *testing.T) {
	if n := unsafe.Sizeof(segment.Seg{}); n > 80 {
		t.Errorf("segment.Seg is %d bytes, want at most 80", n)
	}
	if n := unsafe.Sizeof(tapeEntry{}); n > 96 {
		t.Errorf("tapeEntry is %d bytes, want at most 96", n)
	}
}
