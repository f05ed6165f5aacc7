// Package trajectory turns streams of motion segments into queryable paths.
//
// The paper's algorithms (Section 2: Algorithms 1-4; Section 4: Algorithms
// 5-7) are unbounded loops, so a program is represented lazily, as a Source
// that starts generators. A generator (Gen) is the program's explicit loop
// state: each Next returns the following value-typed segment.Seg, in the
// generator's own storage, with its raw duration and path length, so a
// walk never recomputes them and never boxes or copies a segment it does
// not keep.
// Pulling is the native form: Cursor, Path and the simulator's walkers —
// the search walk, the streams of the rendezvous walk and its twin walk,
// the batch tape and the gathering walk's one stream per clock — all pull
// generators directly, one segment at a time, with no buffering, no
// re-generation and no goroutine. Source.All is the push view for range
// loops, and FromSeq adapts a push closure (an iter.Seq) through iter.Pull.
//
// A Source is a program in its own frame and clock. A robot's frame is not
// applied to the stream: walks place each raw segment under the robot's
// segment.Frame (Path takes one too). The fault and modulation combinators
// (CutAt, DelayStart, FreezeDuring, ModulateSpeed) therefore act in the
// source's own clock, and a modulation's dilation stays outside any frame
// the program is later placed under.
package trajectory

import (
	"iter"

	"repro/internal/geom"
	"repro/internal/segment"
)

// Gen is a program's generator state. Next advances to the program's next
// segment and returns it with its raw duration and path length, bit for
// bit the values seg.DurationAndLength() returns; ok is false once a finite
// program is exhausted, and stays false. The segment belongs to the
// generator and must not be modified. It stays valid until the next call
// that reports ok, so after the end a walk can still read the last one.
//
// A generator that holds resources (FromSeq's pull coroutine) also has a
// Stop method; Stop(g) calls it, and every generator that pulls another
// forwards it.
type Gen interface {
	Next() (seg *segment.Seg, dur, length float64, ok bool)
}

// Stop releases g's resources, if it holds any. g must not be used after.
func Stop(g Gen) {
	if s, ok := g.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// Source is a lazy, possibly infinite program: a reusable description that
// starts independent generators over the same segment sequence. Each
// segment is assumed to start where the previous one ended (continuity);
// CheckContinuity verifies this for tests. The zero Source is empty.
type Source struct {
	start func() Gen
}

// New returns the Source whose generators start returns. Every call of
// start must return a fresh generator at the program's first segment.
func New(start func() Gen) Source { return Source{start: start} }

// Start returns a fresh generator at the program's first segment.
func (s Source) Start() Gen {
	if s.start == nil {
		return &sliceGen{}
	}
	return s.start()
}

// All returns the push view of the program, for range loops.
func (s Source) All() iter.Seq[segment.Seg] {
	return func(yield func(segment.Seg) bool) {
		g := s.Start()
		defer Stop(g)
		for {
			if seg, _, _, ok := g.Next(); !ok || !yield(*seg) {
				return
			}
		}
	}
}

// FromSeq adapts a push closure into a Source: each generator runs seq once
// through iter.Pull, so seq must yield the same segments every time it is
// invoked. Durations and lengths come from Seg.DurationAndLength.
func FromSeq(seq iter.Seq[segment.Seg]) Source {
	return New(func() Gen {
		next, stop := iter.Pull(seq)
		return &pullGen{next: next, stop: stop}
	})
}

// pullGen is FromSeq's generator over an iter.Pull coroutine.
type pullGen struct {
	next func() (segment.Seg, bool)
	stop func()
	seg  segment.Seg
}

func (g *pullGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	s, ok := g.next()
	if !ok {
		return nil, 0, 0, false
	}
	g.seg = s
	dur, length = g.seg.DurationAndLength()
	return &g.seg, dur, length, true
}

func (g *pullGen) Stop() { g.stop() }

// FromSlice returns a finite Source yielding the given segments in order.
func FromSlice(segs []segment.Seg) Source {
	return New(func() Gen { return &sliceGen{segs: segs} })
}

// sliceGen is FromSlice's generator.
type sliceGen struct {
	segs []segment.Seg
	i    int
}

func (g *sliceGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	if g.i == len(g.segs) {
		return nil, 0, 0, false
	}
	seg = &g.segs[g.i]
	g.i++
	dur, length = seg.DurationAndLength()
	return seg, dur, length, true
}

// inner is embedded by every generator that pulls another one: it holds
// the generator pulled now and forwards Stop to it.
type inner struct{ in Gen }

func (w *inner) Stop() {
	if w.in != nil {
		Stop(w.in)
	}
}

// Concat returns a Source yielding all segments of each source in turn.
func Concat(sources ...Source) Source {
	return New(func() Gen { return &concatGen{sources: sources} })
}

// concatGen is Concat's generator; in pulls sources[next-1].
type concatGen struct {
	inner
	sources []Source
	next    int
}

func (g *concatGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	for {
		if g.in != nil {
			if seg, dur, length, ok = g.in.Next(); ok {
				return seg, dur, length, true
			}
			Stop(g.in)
			g.in = nil
		}
		if g.next == len(g.sources) {
			return nil, 0, 0, false
		}
		g.in = g.sources[g.next].Start()
		g.next++
	}
}

// Repeat yields the sources produced by gen(1), gen(2), ... forever. It is
// the "repeat with increasing round number" control structure of
// Algorithms 4 and 7.
func Repeat(gen func(round int) Source) Source {
	return New(func() Gen { return &repeatGen{gen: gen} })
}

// repeatGen is Repeat's generator; in pulls gen(round).
type repeatGen struct {
	inner
	gen   func(round int) Source
	round int
}

func (g *repeatGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	for {
		if g.in != nil {
			if seg, dur, length, ok = g.in.Next(); ok {
				return seg, dur, length, true
			}
			Stop(g.in)
		}
		g.round++
		g.in = g.gen(g.round).Start()
	}
}

// Truncate yields segments of src until the accumulated duration reaches
// maxDuration; the final segment is yielded whole (not cut), so the total
// duration may overshoot by at most one segment.
func Truncate(src Source, maxDuration float64) Source {
	return New(func() Gen { return &truncateGen{inner: inner{src.Start()}, max: maxDuration} })
}

// truncateGen is Truncate's generator.
type truncateGen struct {
	inner
	elapsed, max float64
	done         bool
}

func (g *truncateGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	if g.done || g.elapsed >= g.max {
		g.done = true
		return nil, 0, 0, false
	}
	if seg, dur, length, ok = g.in.Next(); !ok {
		g.done = true
		return nil, 0, 0, false
	}
	g.elapsed += dur
	return seg, dur, length, true
}

// Stationary returns a Source describing a robot that never moves from p.
// Used to model static targets and, in analysis, a hypothetical waiting
// peer. The single Wait segment is infinite in effect: Path clamps queries
// past the end of a finite source, so one long wait suffices; we use a zero
// duration wait and rely on clamping.
func Stationary(p geom.Vec) Source {
	return FromSlice([]segment.Seg{segment.Wait{At: p}.Seg()})
}

// Duration returns the total duration of a finite source.
func Duration(src Source) float64 {
	d, _ := totals(src)
	return d
}

// PathLength returns the total path length of a finite source.
func PathLength(src Source) float64 {
	_, l := totals(src)
	return l
}

// totals sums the durations and path lengths src's generator supplies.
func totals(src Source) (dur, length float64) {
	g := src.Start()
	defer Stop(g)
	for {
		_, d, l, ok := g.Next()
		if !ok {
			return dur, length
		}
		dur += d
		length += l
	}
}

// Collect materialises a finite source into a slice.
func Collect(src Source) []segment.Seg {
	var segs []segment.Seg
	for s := range src.All() {
		segs = append(segs, s)
	}
	return segs
}

// CheckContinuity returns the largest positional gap between consecutive
// segments of a finite source, and the total number of segments. A correct
// trajectory has gap 0 up to round-off.
func CheckContinuity(src Source) (maxGap float64, n int) {
	first := true
	var prevEnd geom.Vec
	for s := range src.All() {
		if !first {
			if gap := s.Start().Dist(prevEnd); gap > maxGap {
				maxGap = gap
			}
		}
		prevEnd = s.End()
		first = false
		n++
	}
	return maxGap, n
}
