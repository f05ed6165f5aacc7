// Package gather extends the paper's two-robot rendezvous to n robots — the
// open direction named in its conclusion ("it would be challenging to solve
// deterministic gathering for multiple robots in this setting of minimal
// knowledge", Section 5).
//
// All robots execute the same local-frame program under their own hidden
// attributes. Two notions of success are measured:
//
//   - Pairwise rendezvous: for each pair (i, j), the first time their
//     distance drops to r. Theorem 2/4 applies to each pair in isolation,
//     so every pair with a symmetry-breaking difference must meet.
//   - Gathering: the first time ALL robots are simultaneously within r of
//     each other (diameter ≤ r). No theorem in the paper guarantees this;
//     the simulator measures whether and when it happens.
//
// The gathering detector is a conservative safe-advance on the diameter
// function g(t) = max pairwise distance − r: with per-robot speed bounds
// v_i, g can decrease at rate at most the two largest speeds combined, so
// advancing by g divided by that rate can never skip the gathering instant.
//
// The detector walks the shared program, not n copies of it. A robot's
// global segment is its local segment under its frame, and its duration is
// the local duration × τ; speed, orientation and chirality move the
// geometry but never the time grid. Robots with bit-equal τ therefore cross
// segment boundaries at bit-identical times, so each distinct clock pulls
// the local program through one trajectory.Cursor, which supplies each
// segment's raw duration, and every robot on it places the raw segment
// under its own frame (segment.Frame with motion.Mover.SetFramed). A robot's motion is
// refilled only when its clock moves to a new segment. The pairwise
// meetings walk the local program under the two robots' frames too
// (sim.FirstMeetingShared).
// An instance with one τ — every E10 instance — generates the program once;
// n distinct clocks cost what n per-robot walks did.
package gather

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/segment"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// Robot is one participant: hidden attributes and a starting position in
// the global frame.
type Robot struct {
	Attrs  frame.Attributes
	Origin geom.Vec
}

// Instance is an n-robot gathering instance with shared visibility radius R.
type Instance struct {
	Robots []Robot
	R      float64
}

// Validate reports whether the instance is well-formed: at least two robots
// with legal attributes, distinct origins, and positive visibility.
func (in Instance) Validate() error {
	if len(in.Robots) < 2 {
		return errors.New("gather: need at least two robots")
	}
	if !(in.R > 0) {
		return errors.New("gather: visibility radius must be positive")
	}
	for i, r := range in.Robots {
		if err := r.Attrs.Validate(); err != nil {
			return fmt.Errorf("gather: robot %d: %w", i, err)
		}
		for j := range i {
			if in.Robots[j].Origin == r.Origin {
				return fmt.Errorf("gather: robots %d and %d share an origin", j, i)
			}
		}
	}
	return nil
}

// PairResult is the first-contact outcome for one robot pair.
type PairResult struct {
	I, J int
	sim.Result
}

// Result is the outcome of a gathering simulation.
type Result struct {
	// Pairs holds the first meeting of every pair (i < j), in
	// lexicographic order.
	Pairs []PairResult
	// Gathered is true when all robots were simultaneously within R
	// (diameter ≤ R) before the horizon.
	Gathered bool
	// GatherTime is the first such time (valid when Gathered).
	GatherTime float64
	// DiameterAtHorizon is the robots' diameter when the run gave up
	// (valid when !Gathered).
	DiameterAtHorizon float64
}

// Options re-uses the two-robot simulator options.
type Options = sim.Options

// Simulate runs all robots on the same program and measures pairwise
// meetings and the gathering time. Each pair's first meeting is the
// two-robot walk of the program under their frames
// (sim.FirstMeetingShared); a pair with equal attributes takes its twin
// walk, which pulls the program once and tests no contact while the pair's
// distance provably stays above R. Gathering is found
// by the safe advance on the diameter over one walk of program per
// distinct clock τ (see the package doc), which visits the same segment
// boundaries, with the same motions, as walking each robot's program under
// its frame separately.
func Simulate(program trajectory.Source, in Instance, opt Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if !(opt.Horizon > 0) {
		return Result{}, sim.ErrBadOptions
	}
	var res Result

	frames := make([]segment.Frame, len(in.Robots))
	for i, r := range in.Robots {
		frames[i] = r.Attrs.Frame(r.Origin)
	}

	// Pairwise meetings via the two-robot engine (exact closed forms), each
	// robot walking the local program under its own frame.
	for i := range in.Robots {
		for j := i + 1; j < len(in.Robots); j++ {
			r, err := sim.FirstMeetingShared(program, frames[i], frames[j], in.R, opt)
			if err != nil {
				return Result{}, fmt.Errorf("pair (%d,%d): %w", i, j, err)
			}
			res.Pairs = append(res.Pairs, PairResult{I: i, J: j, Result: r})
		}
	}

	// Gathering: conservative diameter tracking across all robots.
	gt, ok, diam, err := firstDiameterDrop(program, in, frames, opt)
	if err != nil {
		return Result{}, err
	}
	res.Gathered = ok
	res.GatherTime = gt
	res.DiameterAtHorizon = diam
	return res, nil
}

// clock is one distinct clock rate τ: the walk of the local program that
// every robot with that τ shares (see the package doc).
type clock struct {
	tau   float64
	cur   trajectory.Cursor
	seg   *segment.Seg // current local-frame segment, read in place
	dur   float64      // its global duration: the pulled raw duration × τ
	start float64      // absolute start time of seg
	has   bool
	moved bool // seg changed (or the program ended) since robots last took it
}

// next pulls the following local segment, accumulating absolute start
// times as a running sum of durations.
func (c *clock) next() {
	if c.has {
		c.start += c.dur
	}
	c.moved = true
	seg, d, _, ok := c.cur.Pull()
	if !ok {
		c.has = false // c.seg keeps the last segment for the final positions
		return
	}
	c.seg, c.dur = seg, d*c.tau
	c.has = true
}

// body is one robot's walk state: its frame over its clock's segment, the
// motion that frame gives it, and that motion's speed bound.
type body struct {
	clock int // index into diameterWalk.clocks
	frame *segment.Frame
	mov   motion.Mover
	speed float64 // mov.SpeedBound(), cached per Set
}

// diameterWalk is the gathering detector's walk state, hoisted out of the
// interval loop: one clock per distinct τ, one body per robot and the
// position scratch of the diameter.
type diameterWalk struct {
	clocks []clock
	bodies []body
	pos    []geom.Vec
}

// newDiameterWalk groups the robots by bit-equal τ and opens one cursor per
// group over the local program; frames[i] is robot i's frame.
func newDiameterWalk(program trajectory.Source, robots []Robot, frames []segment.Frame) *diameterWalk {
	w := &diameterWalk{
		clocks: make([]clock, 0, len(robots)),
		bodies: make([]body, len(robots)),
		pos:    make([]geom.Vec, len(robots)),
	}
	for i, r := range robots {
		k := 0
		for k < len(w.clocks) && w.clocks[k].tau != r.Attrs.Tau {
			k++
		}
		if k == len(w.clocks) {
			w.clocks = append(w.clocks, clock{tau: r.Attrs.Tau})
			w.clocks[k].cur.Init(program)
			w.clocks[k].next()
		}
		w.bodies[i] = body{clock: k, frame: &frames[i]}
	}
	return w
}

func (w *diameterWalk) close() {
	for k := range w.clocks {
		w.clocks[k].cur.Close()
	}
}

// advance moves every clock to the segment containing now (zero-duration
// segments never surface), refreshes the motions of the robots whose clock
// moved, and returns the end of the earliest-ending segment, capped at
// horizon. allHalted reports that every clock's program has ended.
func (w *diameterWalk) advance(now, horizon float64) (intervalEnd float64, allHalted bool) {
	intervalEnd, allHalted = horizon, true
	for k := range w.clocks {
		c := &w.clocks[k]
		for c.has && c.start+c.dur <= now {
			c.next()
		}
		if c.has {
			allHalted = false
			if end := c.start + c.dur; end < intervalEnd {
				intervalEnd = end
			}
		}
	}
	for i := range w.bodies {
		b := &w.bodies[i]
		c := &w.clocks[b.clock]
		if !c.moved {
			continue
		}
		if c.has {
			b.mov.SetFramed(c.seg, b.frame, c.start, c.dur)
		} else {
			// A halted robot parks at the end of its last segment (the
			// origin of the global frame if the program was empty).
			var final geom.Vec
			if c.cur.Consumed() > 0 {
				_, final = b.frame.Endpoints(c.seg)
			}
			b.mov.SetStatic(final)
		}
		b.speed = b.mov.SpeedBound()
	}
	for k := range w.clocks {
		w.clocks[k].moved = false
	}
	return intervalEnd, allHalted
}

// firstDiameterDrop finds the first time the robots' diameter is ≤ R, by
// safe advancement over the merged segment timeline.
func firstDiameterDrop(program trajectory.Source, in Instance, frames []segment.Frame, opt Options) (t float64, ok bool, diamAtHorizon float64, err error) {
	w := newDiameterWalk(program, in.Robots, frames)
	defer w.close()
	slack := opt.Slack
	if slack <= 0 {
		slack = 1e-9 * in.R
	}

	now := 0.0
	for now < opt.Horizon {
		intervalEnd, allHalted := w.advance(now, opt.Horizon)
		if allHalted {
			// Diameter is constant forever.
			diam, _ := w.diameterAndRate(now)
			if diam-in.R <= slack {
				return now, true, 0, nil
			}
			return 0, false, diam, nil
		}

		// Safe advance on g(t) = diameter − R within [now, intervalEnd].
		t := now
		for t < intervalEnd {
			diam, closeRate := w.diameterAndRate(t)
			g := diam - in.R
			if g <= slack {
				return t, true, 0, nil
			}
			if closeRate == 0 {
				break // diameter cannot shrink on this interval
			}
			t += g / closeRate
		}
		now = intervalEnd
	}
	diam, _ := w.diameterAndRate(opt.Horizon)
	return 0, false, diam, nil
}

// diameterAndRate returns the robots' diameter at time t and an upper bound
// on the rate at which the diameter can decrease: the sum of the two
// largest speed bounds, kept as a running top two.
func (w *diameterWalk) diameterAndRate(t float64) (diam, rate float64) {
	top1, top2 := math.Inf(-1), math.Inf(-1)
	for i := range w.bodies {
		b := &w.bodies[i]
		w.pos[i] = b.mov.At(t)
		if s := b.speed; s > top1 {
			top1, top2 = s, top1
		} else if s > top2 {
			top2 = s
		}
	}
	for i := range w.pos {
		for j := i + 1; j < len(w.pos); j++ {
			if d := w.pos[i].Dist(w.pos[j]); d > diam {
				diam = d
			}
		}
	}
	return diam, top1 + top2
}

// AllPairsFeasible reports whether every robot pair has a symmetry-breaking
// difference (the necessary condition for all pairwise rendezvous). Pair
// feasibility follows Theorem 4 applied to the relative attributes of the
// pair: relative speed v_j/v_i, relative clock τ_j/τ_i, relative orientation
// and chirality.
func AllPairsFeasible(robots []Robot) bool {
	for i := range robots {
		for j := i + 1; j < len(robots); j++ {
			if !pairFeasible(robots[i].Attrs, robots[j].Attrs) {
				return false
			}
		}
	}
	return true
}

// pairFeasible applies Theorem 4 to the frame of robot i: the relative
// attributes of j as seen from i.
func pairFeasible(a, b frame.Attributes) bool {
	rel := Relative(a, b)
	if rel.Tau != 1 || rel.V != 1 {
		return true
	}
	return rel.Chi == frame.CCW && rel.NormPhi() != 0
}

// Relative returns the attributes of robot b expressed in the frame of
// robot a (so that Theorem 4 and the two-robot machinery apply to the
// pair): speed b.V/a.V, clock b.Tau/a.Tau, orientation χ_a·(φ_b − φ_a), and
// chirality χ_a·χ_b.
func Relative(a, b frame.Attributes) frame.Attributes {
	phi := b.Phi - a.Phi
	if a.Chi == frame.CW {
		phi = -phi
	}
	return frame.Attributes{
		V:   b.V / a.V,
		Tau: b.Tau / a.Tau,
		Phi: phi,
		Chi: a.Chi * b.Chi, // χ_a·χ_b ∈ {+1, −1}
	}
}
