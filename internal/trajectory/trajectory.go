// Package trajectory turns streams of motion segments into queryable paths.
//
// The paper's algorithms (Section 2: Algorithms 1-4; Section 4: Algorithms
// 5-7) are unbounded loops, so a program is represented lazily, as a Source
// that starts generators. A generator (Gen) is the program's explicit loop
// state: each Next returns the following value-typed segment.Seg, in the
// generator's own storage, with its raw duration and path length, so a
// walk never recomputes them and never boxes or copies a segment it does
// not keep.
// Pulling is the only way to read a program: Cursor, Path and the
// simulator's walkers — the search walk, the streams of the rendezvous walk
// and its twin walk, the batch tape and the gathering walk's one stream per
// clock — all pull generators directly, one segment at a time, with no
// buffering, no re-generation and no goroutine. A generator holds no
// resource, so a reader that stops early simply drops it.
//
// A Source is a program in its own frame and clock. A robot's frame is not
// applied to the stream: walks place each raw segment under the robot's
// segment.Frame (Path takes one too). The fault and modulation combinators
// (CutAt, DelayStart, FreezeDuring, ModulateSpeed) therefore act in the
// source's own clock, and a modulation's dilation stays outside any frame
// the program is later placed under.
package trajectory

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// Gen is a program's generator state. Next advances to the program's next
// segment and returns it with its raw duration and path length, bit for
// bit the values seg.DurationAndLength() returns; ok is false once a finite
// program is exhausted, and stays false. The segment belongs to the
// generator and must not be modified. It stays valid until the next call
// that reports ok, so after the end a walk can still read the last one.
// A generator is plain loop state: it holds no resource, and a reader may
// drop it at any point.
type Gen interface {
	Next() (seg *segment.Seg, dur, length float64, ok bool)
}

// Source is a lazy, possibly infinite program: a reusable description that
// starts independent generators over the same segment sequence. Each
// segment is assumed to start where the previous one ended (continuity).
// The zero Source is empty.
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

// Concat returns a Source yielding all segments of each source in turn.
func Concat(sources ...Source) Source {
	return New(func() Gen { return &concatGen{sources: sources} })
}

// concatGen is Concat's generator; in pulls sources[next-1].
type concatGen struct {
	in      Gen
	sources []Source
	next    int
}

func (g *concatGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	for {
		if g.in != nil {
			if seg, dur, length, ok = g.in.Next(); ok {
				return seg, dur, length, true
			}
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
	in    Gen
	gen   func(round int) Source
	round int
}

func (g *repeatGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	for {
		if g.in != nil {
			if seg, dur, length, ok = g.in.Next(); ok {
				return seg, dur, length, true
			}
		}
		g.round++
		g.in = g.gen(g.round).Start()
	}
}

// Truncate yields segments of src until the accumulated duration reaches
// maxDuration; the final segment is yielded whole (not cut), so the total
// duration may overshoot by at most one segment.
func Truncate(src Source, maxDuration float64) Source {
	return New(func() Gen { return &truncateGen{in: src.Start(), max: maxDuration} })
}

// truncateGen is Truncate's generator.
type truncateGen struct {
	in           Gen // src's generator
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
	for {
		_, d, l, ok := g.Next()
		if !ok {
			return dur, length
		}
		dur += d
		length += l
	}
}
