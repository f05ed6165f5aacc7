package trajectory

import "repro/internal/segment"

// Cursor is a pull handle on one run of a Source: it starts a generator and
// hands out its segments in order, counting them. Next returns a copy of
// each segment; Pull returns the generator's own, with its raw duration and
// length, which is what the walks use.
//
// Close marks the cursor exhausted; it is safe to call more than once.
type Cursor struct {
	g        Gen
	consumed int
	done     bool
}

// Init readies a zero Cursor over src. Embedding a Cursor in a caller's
// walk state and calling Init avoids the separate heap allocation of
// NewCursor.
func (c *Cursor) Init(src Source) { *c = Cursor{g: src.Start()} }

// NewCursor returns a cursor over src.
func NewCursor(src Source) *Cursor {
	c := &Cursor{}
	c.Init(src)
	return c
}

// Next returns the next segment of the source. ok is false once a finite
// source is exhausted.
func (c *Cursor) Next() (seg segment.Seg, ok bool) {
	p, _, _, ok := c.Pull()
	if !ok {
		return segment.Seg{}, false
	}
	return *p, true
}

// Pull returns the next segment with its raw duration and length, under
// the Gen contract: the segment is the generator's, and stays valid until
// the next Pull that reports ok.
func (c *Cursor) Pull() (seg *segment.Seg, dur, length float64, ok bool) {
	if c.done {
		return nil, 0, 0, false
	}
	if seg, dur, length, ok = c.g.Next(); !ok {
		c.done = true
		return nil, 0, 0, false
	}
	c.consumed++
	return seg, dur, length, true
}

// Consumed returns the number of segments handed out so far.
func (c *Cursor) Consumed() int { return c.consumed }

// Close marks the cursor exhausted: every later Pull reports false. A
// generator holds no resource, so a cursor that is simply dropped needs no
// Close.
func (c *Cursor) Close() { c.done = true }
