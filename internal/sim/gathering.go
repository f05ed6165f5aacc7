package sim

import (
	"math"

	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// FirstGathering runs program under each of frames, one robot per frame,
// and returns the first time their diameter, the largest pairwise
// distance, is at most r (+Slack). Otherwise ok is false and diamAtHorizon
// is the diameter at the horizon, or once every robot has halted.
//
// It is a conservative safe advance on g(t) = diameter − r: g falls at most
// at the sum of the two largest speed bounds, so advancing by g over that
// rate never steps over the gathering instant. A frame moves a robot's
// geometry, and only its clock moves the time grid, so the robots on one
// clock (segment.Frame.SameClock) share one stream of the program, and
// each places the stream's current raw segment under its own frame when
// the stream moves. A halted robot parks at its last segment's end under
// its frame, or at the global origin for an empty program.
func FirstGathering(program trajectory.Source, frames []segment.Frame, r float64, opt Options) (t float64, ok bool, diamAtHorizon float64, err error) {
	if !(opt.Horizon > 0) || !(r > 0) {
		return 0, false, 0, ErrBadOptions
	}
	w := gatherWalk{streams: make([]stream, 0, len(frames)), bodies: make([]gatherBody, len(frames))}
	for i := range frames {
		k := 0
		for k < len(w.streams) && !w.streams[k].fr.SameClock(&frames[i]) {
			k++
		}
		if k == len(w.streams) {
			w.streams = append(w.streams, stream{})
			w.streams[k].set(nil, &frames[i])
			w.streams[k].begin(program)
		}
		w.bodies[i] = gatherBody{clock: k, fr: &frames[i]}
	}
	slack := detectOptions(opt, r).Slack
	for now, intervals := 0.0, 0; now < opt.Horizon; intervals++ {
		if err := pollCtx(opt.Ctx, intervals); err != nil {
			return 0, false, 0, err
		}
		end := w.advance(now)
		if math.IsInf(end, 1) {
			// Every robot has halted: the diameter is constant forever.
			diam, _ := w.diameterAndRate(now)
			if diam-r <= slack {
				return now, true, 0, nil
			}
			return 0, false, diam, nil
		}
		intervalEnd := min(opt.Horizon, end)
		for t := now; t < intervalEnd; {
			diam, rate := w.diameterAndRate(t)
			g := diam - r
			if g <= slack {
				return t, true, 0, nil
			}
			if rate == 0 {
				break // the diameter cannot shrink on this interval
			}
			t += g / rate
		}
		now = intervalEnd
	}
	diam, _ := w.diameterAndRate(opt.Horizon)
	return 0, false, diam, nil
}

// gatherWalk is FirstGathering's state: one stream per distinct clock and
// one body per robot.
type gatherWalk struct {
	streams []stream
	bodies  []gatherBody
}

// gatherBody is one robot: the index of its clock's stream, its frame, its
// motion on the stream's current segment with that motion's speed bound,
// and its position at the last diameter.
type gatherBody struct {
	clock int
	fr    *segment.Frame
	mov   motion.Mover
	speed float64
	pos   geom.Vec
}

// advance moves every stream to the segment containing now, places the
// robots of each stream that moved, parking them once it has ended, and
// returns the earliest end of a current segment: +Inf once all have ended.
func (w *gatherWalk) advance(now float64) float64 {
	end := math.Inf(1)
	for k := range w.streams {
		s := &w.streams[k]
		if s.advanceTo(now) || s.end == 0 {
			s.end = math.Inf(1)
			if s.has {
				s.end = s.start + s.segDur
			}
			for i := range w.bodies {
				b := &w.bodies[i]
				switch {
				case b.clock != k:
					continue
				case s.has:
					b.mov.SetFramed(s.seg, b.fr, s.start, s.segDur)
				default:
					b.mov.SetStatic(s.parkedAt(b.fr))
				}
				b.speed = b.mov.SpeedBound()
			}
		}
		end = min(end, s.end)
	}
	return end
}

// diameterAndRate returns the robots' diameter at time t and a bound on the
// rate at which it can fall: the sum of the two largest speed bounds, kept
// as a running top two.
func (w *gatherWalk) diameterAndRate(t float64) (diam, rate float64) {
	top1, top2 := math.Inf(-1), math.Inf(-1)
	for i := range w.bodies {
		b := &w.bodies[i]
		b.pos = b.mov.At(t)
		if s := b.speed; s > top1 {
			top1, top2 = s, top1
		} else if s > top2 {
			top2 = s
		}
	}
	for i := range w.bodies {
		for j := i + 1; j < len(w.bodies); j++ {
			if d := w.bodies[i].pos.Dist(w.bodies[j].pos); d > diam {
				diam = d
			}
		}
	}
	return diam, top1 + top2
}
