package trajectory

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// Fault-injection combinators: exact trajectory surgery used to model
// unreliable robots (crash faults, delayed activation). The related work the
// paper discusses ([12] and the compass-error literature) treats such
// deviations as adversarial; these helpers let the simulator measure their
// effect on the paper's algorithms.
//
// Every time argument is in the source's own clock. Applied to a robot's
// local program, the fault happens at that local time; under a frame with
// clock dilation τ it is seen at global time τ·t. Each combinator is a
// generator over its source's generator, and uses the durations it pulls.

// CutAt truncates src at exactly time t: segments before t pass through
// unchanged, the segment straddling t is split exactly (segment.Prefix), and
// nothing follows. The robot therefore halts where it was at time t — a
// crash fault. A non-positive t pins the robot at its starting position (it
// crashed before moving).
func CutAt(src Source, t float64) Source {
	return New(func() Gen { return &cutGen{in: src.Start(), t: t} })
}

// cutGen is CutAt's generator.
type cutGen struct {
	in         Gen // src's generator
	t, elapsed float64
	done       bool
	seg        segment.Seg
}

func (g *cutGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	if g.done {
		return nil, 0, 0, false
	}
	in, d, l, ok := g.in.Next()
	if !ok {
		g.done = true
		return nil, 0, 0, false
	}
	switch {
	case g.t <= 0:
		g.seg = segment.Wait{At: in.Start()}.Seg()
	case g.elapsed+d >= g.t:
		g.seg = segment.Prefix(*in, g.t-g.elapsed)
	default:
		g.elapsed += d
		return in, d, l, true
	}
	g.done = true
	dur, length = g.seg.DurationAndLength()
	return &g.seg, dur, length, true
}

// DelayStart prepends a wait of length delay at the trajectory's starting
// point: the robot activates late. A non-positive delay is a no-op.
func DelayStart(src Source, delay float64) Source {
	if delay <= 0 {
		return src
	}
	return New(func() Gen { return &delayGen{in: src.Start(), delay: delay} })
}

// delayGen is DelayStart's generator: it pulls the first segment to place
// the wait, and holds it until the wait has been handed out.
type delayGen struct {
	in         Gen // src's generator
	delay      float64
	state      int // 0: before the wait, 1: holding first, 2: passing through, 3: ended
	wait       segment.Seg
	first      *segment.Seg
	fdur, flen float64
}

func (g *delayGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	switch g.state {
	case 0:
		at := geom.Zero // an empty inner source still emits the wait at the origin
		var ok bool
		if g.first, g.fdur, g.flen, ok = g.in.Next(); ok {
			at = g.first.Start()
			g.state = 1
		} else {
			g.state = 3
		}
		g.wait.SetWait(at, g.delay)
		return &g.wait, g.delay, 0, true
	case 1:
		g.state = 2
		return g.first, g.fdur, g.flen, true
	case 2:
		return g.in.Next()
	default:
		return nil, 0, 0, false
	}
}

// FreezeDuring replaces motion within the absolute time window [from, to)
// with waiting at the position held at time from, resuming the original
// program afterwards shifted by the freeze length — a transient fault
// (sensor outage, obstruction) after which the robot continues its program
// where it left off. from must be ≤ to; degenerate windows are no-ops.
func FreezeDuring(src Source, from, to float64) Source {
	if to <= from {
		return src
	}
	return New(func() Gen { return &freezeGen{in: src.Start(), from: from, to: to} })
}

// freezeGen is FreezeDuring's generator. When the segment straddling from
// arrives it hands out the part before from (if any), the outage wait and
// the remainder from its own storage.
type freezeGen struct {
	in                Gen // src's generator
	from, to, elapsed float64
	frozen            bool
	parts             [3]segment.Seg // before from, the outage, the remainder
	part              int            // next of parts to hand out
}

func (g *freezeGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	if g.frozen && g.part < len(g.parts) {
		seg = &g.parts[g.part]
		g.part++
		dur, length = seg.DurationAndLength()
		return seg, dur, length, true
	}
	in, d, l, ok := g.in.Next()
	if !ok {
		return nil, 0, 0, false
	}
	if g.frozen || !(g.from < g.elapsed+d) {
		g.elapsed += d
		return in, d, l, true
	}
	// Split at the freeze point, insert the outage wait, then emit the
	// remainder of this segment. An empty part before from is skipped.
	at := g.from - g.elapsed
	g.frozen = true
	g.parts[0] = segment.Prefix(*in, at)
	g.parts[1] = segment.NewWait(in.Position(at), g.to-g.from).Seg()
	g.parts[2] = segment.Suffix(*in, at)
	g.elapsed += d
	if dur, length = g.parts[0].DurationAndLength(); dur > 0 {
		g.part = 1
		return &g.parts[0], dur, length, true
	}
	g.part = 2
	dur, length = g.parts[1].DurationAndLength()
	return &g.parts[1], dur, length, true
}
