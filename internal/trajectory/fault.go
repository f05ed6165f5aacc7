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
// clock dilation τ it is seen at global time τ·t.

// CutAt truncates src at exactly time t: segments before t pass through
// unchanged, the segment straddling t is split exactly (segment.Prefix), and
// nothing follows. The robot therefore halts where it was at time t — a
// crash fault. A non-positive t pins the robot at its starting position (it
// crashed before moving).
func CutAt(src Source, t float64) Source {
	return func(yield func(segment.Seg) bool) {
		var elapsed float64
		for s := range src {
			if t <= 0 {
				yield(segment.Wait{At: s.Start()}.Seg())
				return
			}
			d := s.Duration()
			if elapsed+d >= t {
				yield(segment.Prefix(s, t-elapsed))
				return
			}
			if !yield(s) {
				return
			}
			elapsed += d
		}
	}
}

// DelayStart prepends a wait of length delay at the trajectory's starting
// point: the robot activates late. A non-positive delay is a no-op.
func DelayStart(src Source, delay float64) Source {
	if delay <= 0 {
		return src
	}
	return func(yield func(segment.Seg) bool) {
		first := true
		for s := range src {
			if first {
				first = false
				if !yield(segment.NewWait(s.Start(), delay).Seg()) {
					return
				}
			}
			if !yield(s) {
				return
			}
		}
		if first {
			// Empty inner source: still emit the wait at the origin.
			yield(segment.NewWait(geom.Zero, delay).Seg())
		}
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
	return func(yield func(segment.Seg) bool) {
		var elapsed float64
		frozen := false
		for s := range src {
			d := s.Duration()
			if !frozen && from < elapsed+d {
				// Split at the freeze point, insert the outage wait, then
				// emit the remainder of this segment.
				pre := segment.Prefix(s, from-elapsed)
				if pre.Duration() > 0 {
					if !yield(pre) {
						return
					}
				}
				at := s.Position(from - elapsed)
				if !yield(segment.NewWait(at, to-from).Seg()) {
					return
				}
				if !yield(segment.Suffix(s, from-elapsed)) {
					return
				}
				frozen = true
				elapsed += d
				continue
			}
			if !yield(s) {
				return
			}
			elapsed += d
		}
	}
}
