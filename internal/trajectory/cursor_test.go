package trajectory

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

func TestCursorOrderAndExhaustion(t *testing.T) {
	segs := []segment.Seg{
		segment.UnitLine(geom.Zero, geom.V(1, 0)).Seg(),
		segment.NewWait(geom.V(1, 0), 2).Seg(),
		segment.UnitLine(geom.V(1, 0), geom.V(1, 1)).Seg(),
	}
	c := NewCursor(FromSlice(segs))
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

// countingGen is an infinite generator of unit lines whose i-th segment
// runs from (i,0) to (i+1,0); i counts the segments it has generated.
type countingGen struct {
	i   int
	seg segment.Seg
}

func (g *countingGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	from := geom.V(float64(g.i), 0)
	g.seg.SetLine(from, from.Add(geom.V(1, 0)), 1)
	g.i++
	dur, length = g.seg.DurationAndLength()
	return &g.seg, dur, length, true
}

// TestCursorRestartSkip drives a cursor over a counting generator far
// past a few hundred segments: it hands out exactly the generator's
// sequence, in order, with no duplicates or gaps, from one start of the
// source (the cursor never restarts it and skips a consumed prefix). A
// second cursor over the same source starts again at the first segment.
func TestCursorRestartSkip(t *testing.T) {
	starts := 0
	src := New(func() Gen { starts++; return &countingGen{} })
	c := NewCursor(src)
	const n = 4*8192 + 7
	for i := 0; i < n; i++ {
		seg, ok := c.Next()
		if !ok {
			t.Fatalf("Next %d: exhausted", i)
		}
		if got := seg.Start(); got != geom.V(float64(i), 0) {
			t.Fatalf("segment %d starts at %v, want (%d,0)", i, got, i)
		}
	}
	if starts != 1 {
		t.Errorf("source started %d times for one cursor, want 1", starts)
	}
	if c.Consumed() != n {
		t.Errorf("Consumed = %d, want %d", c.Consumed(), n)
	}
	again := NewCursor(src)
	if seg, ok := again.Next(); !ok || seg.Start() != geom.Zero {
		t.Errorf("second cursor: ok=%v, first segment starts at %v, want origin", ok, seg.Start())
	}
	if starts != 2 {
		t.Errorf("source started %d times for two cursors, want 2", starts)
	}
}

// TestCursorStreamingEscape walks a counting generator far: the cursor
// hands out the exact sequence with its durations and lengths, and Close
// mid-stream marks the cursor exhausted.
func TestCursorStreamingEscape(t *testing.T) {
	c := NewCursor(New(func() Gen { return &countingGen{} }))
	const n = 2*8192 + 123
	for i := 0; i < n; i++ {
		seg, dur, length, ok := c.Pull()
		if !ok {
			t.Fatalf("Pull %d: exhausted", i)
		}
		if got := seg.Start(); got != geom.V(float64(i), 0) {
			t.Fatalf("segment %d starts at %v, want (%d,0)", i, got, i)
		}
		if d, l := seg.DurationAndLength(); dur != d || length != l {
			t.Fatalf("segment %d: pulled (%v, %v), DurationAndLength (%v, %v)", i, dur, length, d, l)
		}
	}
	c.Close()
	if _, ok := c.Next(); ok {
		t.Error("Next after Close reported a segment")
	}
	c.Close() // a second Close is a no-op
}

// TestCursorFiniteAcrossRefills: a finite source of a few hundred segments
// is fully delivered and then reports exhaustion.
func TestCursorFiniteAcrossRefills(t *testing.T) {
	const n = 3*64 + 5
	segs := make([]segment.Seg, n)
	for i := range segs {
		from := geom.V(float64(i), 0)
		segs[i] = segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()
	}
	c := NewCursor(FromSlice(segs))
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
	if _, ok := c.Next(); ok {
		t.Error("empty source reported a segment")
	}
}

// walkAndClose pulls n segments from a fresh cursor over an infinite
// counting generator and closes it mid-stream.
func walkAndClose(t *testing.T, n int) {
	c := NewCursor(New(func() Gen { return &countingGen{} }))
	for i := range n {
		if _, ok := c.Next(); !ok {
			t.Fatalf("Next %d: exhausted", i)
		}
	}
	c.Close()
}

// TestCursorAllocsIndependentOfLength: a cursor allocates nothing per
// segment, so a 2×10⁵-segment and a
// 5×10⁵-segment walk allocate the same number of objects. Each walk ends
// with a Close in the middle of the stream. The count is the fewest over
// several walks, with the collector off.
func TestCursorAllocsIndependentOfLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := func(n int) float64 {
		best := math.Inf(1)
		for range 4 {
			best = min(best, testing.AllocsPerRun(1, func() { walkAndClose(t, n) }))
		}
		return best
	}
	short, long := fewest(200_000), fewest(500_000)
	if short != long {
		t.Errorf("cursor walk allocs grow with length: %v for 2e5 segments, %v for 5e5", short, long)
	}
}
