package trajectory

import (
	"sync"

	"repro/internal/segment"
)

// Cursor buffering parameters. The ring starts small so the common case —
// a simulation that meets within a few dozen segments — costs one buffer
// fill and no goroutines; it doubles on each refill so restart-skip work
// stays amortised O(1) per segment; past streamThreshold the cursor stops
// restarting and spawns a batching producer instead, so a to-horizon walk
// over hundreds of thousands of segments is generated exactly once more and
// streamed with two channel operations per batch. The stream circulates a
// fixed set of cursorStreamBatches batches between producer and consumer:
// at most cursorStreamQueue full batches wait in the channel, one is being
// filled and one is being read, so the set never runs dry.
const (
	cursorInitialBuf    = 64
	cursorStreamBatch   = 256
	cursorStreamAtLeast = 8192 // consumed count at which refills switch to streaming
	cursorStreamQueue   = 2
	cursorStreamBatches = cursorStreamQueue + 2
)

// bufPool recycles the initial-size cursor buffers so the hot path performs
// no per-simulation buffer allocation in steady state.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]segment.Seg, cursorInitialBuf)
		return &b
	},
}

// Cursor is an explicit resumable pull cursor over a push Source: Next
// returns the source's segments one at a time, in order, without the
// goroutine-backed machinery of iter.Pull.
//
// A Source is a callback generator and cannot be suspended, so the cursor
// buffers a window of upcoming segments. While the window covers the walk
// (the common case — most simulations resolve within the first few dozen
// segments) a single generator invocation fills it and nothing else runs.
// When the window is exhausted the cursor re-invokes the source, skipping
// the already-consumed prefix and filling a doubled window — geometric
// growth keeps the total re-generation work linear in the number of
// segments consumed. Once the consumed prefix is long enough that
// restarting would dominate (streamThreshold), the cursor switches to a
// single background producer goroutine that streams the remainder in
// batches, bounding both memory and re-generation for unbounded walks.
// Stream batches are recycled: Next hands each read-out batch back to the
// producer, which refills it, so a stream allocates its
// cursorStreamBatches batches once, at the switch, and a walk of any length
// holds no more than that.
//
// The restart strategy requires the Source to be pure: re-invoking it must
// yield the same segments (see the Source contract). Close releases the
// pooled buffer and stops the producer, if any; it is safe to call at most
// once, and using the cursor after Close is invalid. Close returns only once
// the producer has stopped.
type Cursor struct {
	src      Source
	buf      []segment.Seg // current window (pooled at initial size, or a stream batch)
	pooled   *[]segment.Seg
	head     int // next unread index in buf[:fill]
	fill     int
	consumed int                    // segments handed out across all windows
	srcEnded bool                   // the source ended inside the current window
	skip     int                    // refill scratch: segments still to skip in this re-invocation
	collect  func(segment.Seg) bool // cached refill collector (one closure per cursor)

	streaming bool
	batches   chan []segment.Seg // filled batches, producer → consumer
	free      chan []segment.Seg // read-out batches, consumer → producer
	stop      chan struct{}
}

// Init readies a zero Cursor over src. Embedding a Cursor in a caller's
// walk state and calling Init avoids the separate heap allocation of
// NewCursor.
func (c *Cursor) Init(src Source) { c.src = src }

// NewCursor returns a cursor over src.
func NewCursor(src Source) *Cursor {
	c := &Cursor{}
	c.Init(src)
	return c
}

// Next returns the next segment of the source. ok is false once a finite
// source is exhausted.
func (c *Cursor) Next() (seg segment.Seg, ok bool) {
	for {
		if c.head < c.fill {
			seg = c.buf[c.head]
			c.head++
			c.consumed++
			return seg, true
		}
		if c.srcEnded {
			return segment.Seg{}, false
		}
		if c.streaming {
			// c.buf is a read-out stream batch (nil right after the
			// switch): return it before waiting for the next one. The
			// send never blocks — free holds every batch there is.
			if c.buf != nil {
				c.free <- c.buf[:0]
				c.buf = nil
			}
			batch, open := <-c.batches
			if !open {
				c.srcEnded = true
				return segment.Seg{}, false
			}
			c.buf, c.head, c.fill = batch, 0, len(batch)
			continue
		}
		if c.consumed >= cursorStreamAtLeast {
			c.startStream()
			continue
		}
		c.refill()
	}
}

// Consumed returns the number of segments handed out so far.
func (c *Cursor) Consumed() int { return c.consumed }

// refill re-invokes the source, skips the consumed prefix, and fills a
// (possibly doubled) window.
func (c *Cursor) refill() {
	switch {
	case c.buf == nil:
		c.pooled = bufPool.Get().(*[]segment.Seg)
		c.buf = *c.pooled
	case c.consumed == c.fill:
		// First refill after the initial window: from here on the window
		// doubles, so hand the pooled buffer back and grow privately.
		c.releaseBuf()
		c.buf = make([]segment.Seg, 2*cursorInitialBuf)
	default:
		c.buf = make([]segment.Seg, 2*len(c.buf))
	}
	c.head, c.fill = 0, 0
	c.skip = 0
	if c.collect == nil {
		c.collect = func(s segment.Seg) bool {
			if c.skip < c.consumed {
				c.skip++
				return true
			}
			c.buf[c.fill] = s
			c.fill++
			return c.fill < len(c.buf)
		}
	}
	c.src(c.collect)
	if c.fill < len(c.buf) {
		c.srcEnded = true
	}
}

// startStream drops the restart window and hands generation to a producer
// goroutine that skips the consumed prefix once and then streams batches
// until stopped. All stream batches are carved from one backing array and
// start out in the free channel.
func (c *Cursor) startStream() {
	c.releaseBuf()
	c.streaming = true
	c.batches = make(chan []segment.Seg, cursorStreamQueue)
	c.free = make(chan []segment.Seg, cursorStreamBatches)
	c.stop = make(chan struct{})
	backing := make([]segment.Seg, cursorStreamBatches*cursorStreamBatch)
	for i := range cursorStreamBatches {
		lo, hi := i*cursorStreamBatch, (i+1)*cursorStreamBatch
		c.free <- backing[lo:lo:hi]
	}
	go produce(c.src, c.consumed, c.batches, c.free, c.stop)
}

// produce generates src once, skipping the first skip segments, and sends
// the rest in batches, each refilled from the free channel. It returns —
// unwinding the generator — when the consumer signals stop, and closes the
// batch channel on return.
func produce(src Source, skip int, batches chan<- []segment.Seg, free <-chan []segment.Seg, stop <-chan struct{}) {
	defer close(batches)
	batch := <-free // free starts out holding every batch
	n := 0
	src(func(s segment.Seg) bool {
		if n < skip {
			n++
			return true
		}
		batch = append(batch, s)
		if len(batch) < cursorStreamBatch {
			return true
		}
		select {
		case batches <- batch:
		case <-stop:
			return false
		}
		select {
		case batch = <-free:
			return true
		case <-stop:
			return false
		}
	})
	if len(batch) > 0 {
		select {
		case batches <- batch:
		case <-stop:
		}
	}
}

// releaseBuf returns a pooled window to the pool.
func (c *Cursor) releaseBuf() {
	if c.pooled != nil {
		bufPool.Put(c.pooled)
		c.pooled = nil
	}
	c.buf = nil
}

// Close releases the cursor's buffer and stops its producer goroutine, if
// one was started, waiting for it to return: the producer closes the batch
// channel on its way out, so draining it until closed is the wait.
func (c *Cursor) Close() {
	if c.streaming {
		close(c.stop)
		for range c.batches {
		}
		c.streaming = false
	}
	c.releaseBuf()
	c.head, c.fill = 0, 0
	c.srcEnded = true
}
