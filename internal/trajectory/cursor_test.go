package trajectory

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

// counting returns an infinite source of unit lines whose i-th segment runs
// from (i,0) to (i+1,0), and a counter of generator invocations.
func counting(invocations *int) Source {
	return func(yield func(segment.Seg) bool) {
		*invocations++
		for i := 0; ; i++ {
			from := geom.V(float64(i), 0)
			if !yield(segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()) {
				return
			}
		}
	}
}

func TestCursorOrderAndExhaustion(t *testing.T) {
	segs := []segment.Seg{
		segment.UnitLine(geom.Zero, geom.V(1, 0)).Seg(),
		segment.NewWait(geom.V(1, 0), 2).Seg(),
		segment.UnitLine(geom.V(1, 0), geom.V(1, 1)).Seg(),
	}
	c := NewCursor(FromSlice(segs))
	defer c.Close()
	for i, want := range segs {
		got, ok := c.Next()
		if !ok || got != want {
			t.Fatalf("Next %d: ok=%v got=%#v", i, ok, got)
		}
	}
	if _, ok := c.Next(); ok {
		t.Error("Next after exhaustion reported a segment")
	}
	if _, ok := c.Next(); ok {
		t.Error("repeated Next after exhaustion reported a segment")
	}
	if c.Consumed() != len(segs) {
		t.Errorf("Consumed = %d, want %d", c.Consumed(), len(segs))
	}
}

// TestCursorRestartSkip drives the cursor past several window refills and
// checks that the restart-skip resume hands out exactly the generator's
// sequence, in order, with no duplicates or gaps.
func TestCursorRestartSkip(t *testing.T) {
	invocations := 0
	c := NewCursor(counting(&invocations))
	defer c.Close()
	const n = cursorInitialBuf*4 + 7 // forces at least two refills
	for i := 0; i < n; i++ {
		seg, ok := c.Next()
		if !ok {
			t.Fatalf("Next %d: exhausted", i)
		}
		if got := seg.Start(); got != geom.V(float64(i), 0) {
			t.Fatalf("segment %d starts at %v, want (%d,0)", i, got, i)
		}
	}
	if invocations < 2 {
		t.Errorf("expected restart-skip re-invocations, generator ran %d time(s)", invocations)
	}
}

// TestCursorStreamingEscape walks far past the streaming threshold: the
// cursor must hand generation to the batching producer and still deliver the
// exact sequence.
func TestCursorStreamingEscape(t *testing.T) {
	invocations := 0
	c := NewCursor(counting(&invocations))
	defer c.Close()
	const n = cursorStreamAtLeast*2 + 123
	for i := 0; i < n; i++ {
		seg, ok := c.Next()
		if !ok {
			t.Fatalf("Next %d: exhausted", i)
		}
		if got := seg.Start(); got != geom.V(float64(i), 0) {
			t.Fatalf("segment %d starts at %v, want (%d,0)", i, got, i)
		}
	}
	if !c.streaming {
		t.Error("cursor did not escape to streaming past the threshold")
	}
	// Close mid-stream: the producer must stop (it unwinds on the stop
	// signal at its next send; nothing to assert beyond not deadlocking).
	c.Close()
	if _, ok := c.Next(); ok {
		t.Error("Next after Close reported a segment")
	}
}

// TestCursorFiniteAcrossRefills: a finite source longer than one window is
// fully delivered and then reports exhaustion.
func TestCursorFiniteAcrossRefills(t *testing.T) {
	const n = cursorInitialBuf*3 + 5
	segs := make([]segment.Seg, n)
	for i := range segs {
		from := geom.V(float64(i), 0)
		segs[i] = segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()
	}
	c := NewCursor(FromSlice(segs))
	defer c.Close()
	for i := 0; i < n; i++ {
		seg, ok := c.Next()
		if !ok || seg != segs[i] {
			t.Fatalf("Next %d: ok=%v", i, ok)
		}
	}
	if _, ok := c.Next(); ok {
		t.Error("finite source not exhausted after all segments")
	}
}

// TestCursorEmptySource: an empty source is exhausted immediately.
func TestCursorEmptySource(t *testing.T) {
	c := NewCursor(FromSlice(nil))
	defer c.Close()
	if _, ok := c.Next(); ok {
		t.Error("empty source reported a segment")
	}
}

// walkAndClose pulls n segments from a fresh cursor over an infinite source
// and closes it mid-stream.
func walkAndClose(t *testing.T, n int) {
	invocations := 0
	c := NewCursor(counting(&invocations))
	for i := range n {
		if _, ok := c.Next(); !ok {
			t.Fatalf("Next %d: exhausted", i)
		}
	}
	c.Close()
}

// TestCursorStreamAllocsIndependentOfLength: once streaming, a walk
// allocates nothing per batch — the stream recycles a fixed set of batches —
// so a 2×10⁵-segment and a 5×10⁵-segment walk allocate the same number of
// objects. Each walk ends with a Close in the middle of the stream. The
// count is the fewest over several walks: under the race detector sync.Pool
// drops a random quarter of its puts, so a walk may reallocate its pooled
// first window.
func TestCursorStreamAllocsIndependentOfLength(t *testing.T) {
	fewest := func(n int) float64 {
		best := math.Inf(1)
		for range 8 {
			best = min(best, testing.AllocsPerRun(1, func() { walkAndClose(t, n) }))
		}
		return best
	}
	short, long := fewest(200_000), fewest(500_000)
	if short != long {
		t.Errorf("streaming walk allocs grow with length: %v for 2e5 segments, %v for 5e5", short, long)
	}
}
