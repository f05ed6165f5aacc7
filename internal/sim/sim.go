// Package sim runs exact continuous-time simulations of the paper's two
// problems: search (one robot, one static target) and rendezvous (two robots
// executing the same algorithm in different reference frames).
//
// The simulator walks the two trajectories' merged segment timeline. Within
// an interval where both robots stay on single segments, first contact is
// resolved by internal/motion in closed form where possible: line or wait
// against anything linear, an arc against a waiting robot, and two arcs
// turning at the same ω — every arc×arc interval of a robot pair with
// τ = 1, χ = +1, whose relative motion is itself circular (the paper's
// reduction of rendezvous to search). Only the remaining intervals of a
// robot pair iterate by conservative safe advancement: arcs with different
// ω (τ ≠ 1 or χ = −1), an arc against a moving line, and modulated
// segments under a frame. A search target is static, so every search
// interval is a line or wait against a point (a quadratic) or an arc
// against a point (an arccos), and the search walk never iterates.
// Durations are exact, so measured meeting times are directly comparable
// with the paper's closed-form analysis.
//
// There are three walks, one per problem. The search walk, searchWalk,
// pulls the program's generator in one loop for a vector of lanes, each a
// static target: one stream against static targets needs no merge and no
// second Mover. Search runs it on one lane held on its stack, SearchBatch
// on a whole batch. The rendezvous walk, meet, merges two streams and is
// the one loop behind FirstMeetingFramed, FirstMeetingShared (and so
// Rendezvous) and every lane of the batched rendezvous kernel. The
// gathering walk, FirstGathering, merges one stream per distinct clock and
// places each stream's segments under the frame of every robot on that
// clock. Both merged walks place a program on the time axis through one
// type, stream: start times as a running sum of durations, durations under
// the frame's clock, zero-duration segments skipped, and a parked final
// position. A stream pulls value-typed segments either from its own
// trajectory.Cursor — the program's generator state, pulled directly, each
// segment read in the generator's storage with its raw duration and length
// — or, on a batch lane, from a Tape of raw segments shared by every lane
// that reads it. No stream generates a segment twice or recomputes a
// duration its generator supplied. Every walk is allocation-free per
// segment, and a walk's allocations do not grow with its length; the
// per-segment motions live in caller-owned motion.Mover storage.
//
// A robot's frame x ↦ vτ·Rot(φ)·Diag(1,χ)·x + d on clock τ is fixed for the
// whole walk, so it is placement state, not part of any segment: Rendezvous
// and RendezvousAsymmetric (through FirstMeetingFramed) pull each robot's
// *local* program and place every raw segment under the robot's
// segment.Frame, whose constants — operator norm, similarity verdict,
// scale, handedness — are computed once. Durations go through
// Frame.Duration on the raw values the generator supplied, lengths through
// Frame.Norm, and motions through motion.Mover.SetFramed. Fault and
// speed-modulation combinators (trajectory.CutAt, ModulateSpeed, ...) act
// on the local program, in the robot's own clock; a modulation's dilation
// stays outside the frame (see segment.Frame). The placement arithmetic is
// pinned against a frozen copy of the framed segments it replaced
// (motion.FuzzSetFramedMatchesSet), and whole walks against Results
// recorded from that composed path (TestRendezvousMatchesComposedCorpus).
//
// Twins take a shorter walk. Two robots that run one program under frames
// whose linear parts and clocks are bit-equal (segment.Frame.Twin) — Theorem
// 4's infeasible v = 1, τ = 1, φ = 0, χ = +1, or a gather pair with equal
// attributes — keep the constant offset ΔT = T_B − T_A up to rounding, so
// they never meet while |ΔT| clears r + Slack by a rounding margin
// k·u·(L + |T_A| + |T_B| + |ΔT|), with u = 2^−53, L a bound on the current
// segment's placed points and k = 1024 (twinWalk proves it). It applies when
// the caller passed one program: Rendezvous, FirstMeetingShared and every
// tape lane do; FirstMeetingFramed with two sources never takes it. While
// the margin holds, meet pulls one stream and updates its odometer and
// interval count, with no placement and no contact test; the other robot's
// stream is not started. On a modulated segment, at the end of the
// program or where the margin fails, it hands over to the full loop at the
// same t, starting the second stream at the first one's place. At the
// horizon it places both robots once for the Gap, and DistanceB is
// DistanceA. Results are bit-identical to the full walk
// (FuzzTwinMatchesFullWalk).
//
// For whole grid rows of instances sharing one algorithm shape, the batched
// SoA kernels (SearchBatch and RendezvousBatch over batch.Lanes) amortize
// segment generation across all lanes: SearchBatch walks the shared program
// once, hoisting the per-segment motion setup out of the lane loop and
// reducing per-lane work to a closed-form contact test; RendezvousBatch
// records the generated stream into a Tape that each lane's pair of streams
// replays through meet. A Tape outlives one call: a sweep opens one per
// grid and hands it to every row and every lane chunk of a split row
// (Tape.Rendezvous), on as many goroutines as run them. Readers take no
// lock for recorded segments, which sit in pages that never move; a reader
// that needs an unrecorded one records it under the tape's mutex (see
// Tape). A tape records at most the program's first 2^16 segments, so its
// memory stays bounded at any horizon: a lane that walks past them, such
// as an infeasible one walking to a long horizon, goes on with its own
// cursor, like the scalar walk. Results are bit-identical to the scalar
// entry points, lane for lane, however the lanes are chunked and
// interleaved — pinned by differential tests, TestTapeConcurrentLanes,
// TestTapeOutrunLanes and FuzzBatchMatchesScalar.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// Options control a simulation run.
type Options struct {
	// Horizon is the global time at which the simulation gives up. It must
	// be positive: infeasible rendezvous instances never meet, and the
	// robots have no way to detect that (Section 1 of the paper), so the
	// caller must bound the run.
	Horizon float64
	// Slack is the contact-detection slack passed to the motion package;
	// contact is declared at distance ≤ r (+Slack on the conservative
	// path and the equal-ω arc×arc closed form), and gathering at a
	// diameter ≤ r + Slack. Zero selects 1e-9·r. The rendezvous walk
	// (FirstMeetingFramed, FirstMeetingShared, RendezvousBatch) and the
	// gathering walk (FirstGathering) read it; Search and SearchBatch
	// solve every interval in closed form at distance ≤ r.
	// cache.SearchKey still includes it, so search keys recorded before
	// stay valid.
	Slack float64
	// MaxIters bounds conservative detection work per segment interval.
	// Zero selects a generous default. Only the rendezvous walk reads it.
	MaxIters int
	// Ctx, when non-nil, lets a caller cancel a long walk mid-flight: the
	// walk loops poll it every ctxStride segment intervals (cheap — one
	// counter test per interval, one Err call per stride) and return an
	// error wrapping both ErrCanceled and the context's cause. Results are
	// bit-identical with Ctx nil or set-but-never-canceled: cancellation
	// only ever replaces a result with an error, never alters one. Ctx is
	// not part of a cache key (see internal/cache) — two calls differing
	// only in Ctx are the same simulation.
	Ctx context.Context
}

// ctxStride is how many segment intervals a walk processes between context
// polls: coarse enough that the poll never shows up in the hot-path
// benchmarks, fine enough that a deadline stops a long walk within
// microseconds. The first interval of every walk polls (0 % ctxStride == 0),
// so even a one-interval job observes an already-expired deadline.
const ctxStride = 256

// ErrCanceled is wrapped into the error a walk returns when its
// Options.Ctx ends before the horizon; the context's own error
// (context.Canceled or context.DeadlineExceeded) is wrapped alongside, so
// errors.Is matches either.
var ErrCanceled = errors.New("sim: walk canceled")

// pollCtx checks ctx every ctxStride-th interval, returning the
// cancellation error to surface (nil to continue).
func pollCtx(ctx context.Context, intervals int) error {
	if ctx == nil || intervals%ctxStride != 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w after %d intervals: %w", ErrCanceled, intervals, err)
	}
	return nil
}

// ErrBadOptions is returned for a horizon or radius that is not positive
// (NaN included).
var ErrBadOptions = errors.New("sim: horizon and radius must be positive")

// Result reports the outcome of a simulation.
type Result struct {
	// Met is true when contact occurred before the horizon.
	Met bool
	// Time is the first contact time (global). Only valid when Met.
	Time float64
	// WhereA and WhereB are the robots' positions at the contact time (for
	// search, B is the target). Only valid when Met.
	WhereA, WhereB geom.Vec
	// Gap is the distance between the robots at Time (≤ r + slack) when
	// Met; otherwise the distance at the horizon.
	Gap float64
	// DistanceA and DistanceB are the path lengths travelled by each robot
	// up to Time (when Met) or up to the horizon — the energy cost of the
	// strategy.
	DistanceA, DistanceB float64
	// Intervals is the number of segment-pair intervals processed.
	Intervals int
}

// String implements fmt.Stringer.
func (r Result) String() string {
	if !r.Met {
		return fmt.Sprintf("no contact (gap %.6g at horizon, %d intervals)", r.Gap, r.Intervals)
	}
	return fmt.Sprintf("contact at t=%.6g (gap %.3g, %d intervals)", r.Time, r.Gap, r.Intervals)
}

// detectOptions resolves the motion-detection options for radius r.
func detectOptions(opt Options, r float64) motion.Options {
	mopt := motion.Options{Slack: opt.Slack, MaxIters: opt.MaxIters}
	if mopt.Slack <= 0 {
		mopt.Slack = 1e-9 * r
	}
	if mopt.MaxIters <= 0 {
		mopt.MaxIters = motion.DefaultOptions(r).MaxIters
	}
	return mopt
}

// stream is one robot's half of the merged two-source walk, or one clock
// of the gathering walk: the source of its segments, the current segment
// placed on the absolute time axis, the odometer, and the reusable motion
// storage. The gathering walk reads only the placed segment and places it
// under each of its robots' frames itself.
//
// The segments come from the stream's own cursor, which hands out each one
// with its raw duration and length in its generator's storage, or, on a
// batch lane, from a Tape shared by every lane that reads it, whose pages
// never move. Either way the stream reads the current segment in place.
//
// The source yields the robot's local program, and the robot's frame is
// applied at placement: durations and lengths go through the Frame and the
// motion through Mover.SetFramed.
type stream struct {
	cur    trajectory.Cursor
	tp     *Tape        // the shared tape, when the stream replays one
	n      int          // segments pulled; the index of the next tape segment
	seg    *segment.Seg // the current segment (raw, local), read in place
	fr     segment.Frame
	segDur float64 // its global duration: the pulled raw one, placed
	segLen float64 // its global path length: the pulled raw one, placed
	start  float64 // absolute start time of the current segment
	has    bool
	odo    odometer
	mov    motion.Mover
	end    float64 // absolute end of the current motion (+Inf when halted)
}

// set aims the stream under fr, clearing all walk state, without pulling:
// begin starts it. When tp is not nil the stream reads tp instead of a
// cursor of its own.
func (s *stream) set(tp *Tape, fr *segment.Frame) {
	*s = stream{tp: tp, fr: *fr}
}

// begin starts the stream at the start of src, its program, and pulls the
// first segment. A tape stream reads its tape, a Tape of src, instead.
func (s *stream) begin(src trajectory.Source) {
	if s.tp == nil {
		s.cur.Init(src)
	}
	s.next()
}

// next advances to the following segment, accumulating absolute start times
// exactly like the former per-stream walker (a running sum of durations).
func (s *stream) next() {
	if s.has {
		s.start += s.segDur
	}
	if !s.pull() {
		s.has = false // the current segment is still the last one
		return
	}
	s.segDur = s.fr.Duration(s.seg, s.segDur)
	s.segLen *= s.fr.Norm()
	s.has = true
}

// pull makes the source's next segment current, with its raw duration and
// length in segDur and segLen. It reports false, leaving the current
// segment in place, when the source is exhausted. A tape stream that
// reaches the end of the tape goes on with its own cursor over the tape's
// program, past the tapeLen segments the tape holds.
func (s *stream) pull() bool {
	if s.tp != nil && s.n == tapeLen {
		s.cur.Init(s.tp.src)
		for range tapeLen {
			s.cur.Pull()
		}
		s.tp = nil
	}
	if s.tp != nil {
		e := s.tp.entry(s.n)
		if e == nil {
			return false
		}
		s.seg, s.segDur, s.segLen = &e.seg, e.dur, e.len
		s.n++
		return true
	}
	seg, dur, length, ok := s.cur.Pull()
	if !ok {
		return false
	}
	s.seg, s.segDur, s.segLen = seg, dur, length
	s.n++
	return true
}

// advanceTo moves the stream past the segments ending at or before t, so
// zero-duration segments never surface, and reports whether it moved.
func (s *stream) advanceTo(t float64) (advanced bool) {
	for s.has && s.start+s.segDur <= t {
		s.next()
		advanced = true
	}
	return advanced
}

// motionAt positions the stream's motion at absolute time t: it advances
// to the segment containing t, refreshes the odometer, and fills the
// Mover. Past the end of a finite source the mover is static forever
// (end = +Inf).
func (s *stream) motionAt(t float64) {
	advanced := s.advanceTo(t)
	if !s.has {
		s.odo.halt()
		if advanced || s.end != math.Inf(1) {
			s.mov.SetStatic(s.parkedAt(&s.fr))
			s.end = math.Inf(1)
		}
		return
	}
	s.odo.observe(s.start, s.segDur, s.segLen)
	if advanced || s.end == 0 {
		s.mov.SetFramed(s.seg, &s.fr, s.start, s.segDur)
		s.end = s.start + s.segDur
	}
}

// parkedAt returns where a robot that has run the stream's whole program
// under fr parks: the end of its last segment, or the global origin for an
// empty program. Walks ask for it once the stream has ended, not per
// segment: End costs an arc a sincos.
func (s *stream) parkedAt(fr *segment.Frame) (p geom.Vec) {
	if s.n > 0 {
		_, p = fr.Endpoints(s.seg)
	}
	return p
}

// FirstMeetingFramed simulates the local programs programA and programB
// placed under the frames fa and fb from time 0, and returns the first time
// the robots' distance is at most r. Programs may be finite (the robot
// halts at its final position) or infinite.
//
// The two streams are walked by one merged loop over value-typed segments:
// each iteration holds one segment per robot, resolves first contact on the
// overlap interval, and advances whichever stream ends first. Each stream
// pulls its program's generator directly (trajectory.Cursor): no segment is
// boxed, buffered or generated twice.
//
// With two sources the walk never takes the twin path, even when both
// programs are the same: only FirstMeetingShared knows that they are.
func FirstMeetingFramed(programA trajectory.Source, fa segment.Frame, programB trajectory.Source, fb segment.Frame, r float64, opt Options) (Result, error) {
	return firstMeeting(programA, &fa, programB, &fb, false, r, opt)
}

// FirstMeetingShared is FirstMeetingFramed for two robots that run one
// program: bit-identical to FirstMeetingFramed(program, fa, program, fb,
// r, opt). When fa and fb are twins (segment.Frame.Twin) it walks the
// program once, with no placement and no contact test, for as long as the
// robots' distance provably stays above r (see twinWalk).
func FirstMeetingShared(program trajectory.Source, fa, fb segment.Frame, r float64, opt Options) (Result, error) {
	return firstMeeting(program, &fa, program, &fb, true, r, opt)
}

// firstMeeting walks programA under fa against programB under fb; one says
// that they are one program.
func firstMeeting(programA trajectory.Source, fa *segment.Frame, programB trajectory.Source, fb *segment.Frame, one bool, r float64, opt Options) (Result, error) {
	if !(opt.Horizon > 0) || !(r > 0) {
		return Result{}, ErrBadOptions
	}
	// One allocation holds both streams.
	var w struct{ sa, sb stream }
	w.sa.set(nil, fa)
	w.sa.begin(programA)
	w.sb.set(nil, fb)
	return meet(&w.sa, &w.sb, programB, one, r, opt)
}

// meet is the merged walk of two streams, the one loop behind
// FirstMeetingFramed, FirstMeetingShared and every batch lane. sa has
// begun and sb is set; meet begins sb on programB. With one, which says
// that both streams run one program, and twin frames, meet first takes the
// twin walk and begins sb only where the full loop needs it. opt.Horizon
// and r must be positive.
func meet(sa, sb *stream, programB trajectory.Source, one bool, r float64, opt Options) (Result, error) {
	mopt := detectOptions(opt, r)
	var res Result
	t := 0.0
	if one && sa.fr.Twin(&sb.fr) {
		var done bool
		var err error
		if t, done, err = twinWalk(sa, sb, &res, r+mopt.Slack, opt); err != nil {
			return Result{}, err
		}
		if done {
			return res, nil
		}
		takeOver(sa, sb, programB)
	} else {
		sb.begin(programB)
	}
	for t < opt.Horizon {
		if err := pollCtx(opt.Ctx, res.Intervals); err != nil {
			return Result{}, err
		}
		sa.motionAt(t)
		sb.motionAt(t)

		intervalEnd := min(opt.Horizon, sa.end, sb.end)
		if math.IsInf(sa.end, 1) && math.IsInf(sb.end, 1) {
			// Both halted: the gap is constant forever.
			res.Intervals++
			gap := sa.mov.At(t).Dist(sb.mov.At(t))
			res.DistanceA, res.DistanceB = sa.odo.at(t), sb.odo.at(t)
			if gap <= r {
				res.met(t, sa.mov.At(t), sb.mov.At(t))
				return res, nil
			}
			res.Gap = gap
			return res, nil
		}

		res.Intervals++
		hit, found, err := motion.Contact(&sa.mov, &sb.mov, r, t, intervalEnd, mopt)
		if err != nil {
			return Result{}, fmt.Errorf("interval [%v, %v]: %w", t, intervalEnd, err)
		}
		if found {
			res.DistanceA, res.DistanceB = sa.odo.at(hit), sb.odo.at(hit)
			res.met(hit, sa.mov.At(hit), sb.mov.At(hit))
			return res, nil
		}
		t = intervalEnd
	}
	res.Gap = sa.mov.At(opt.Horizon).Dist(sb.mov.At(opt.Horizon))
	res.DistanceA, res.DistanceB = sa.odo.at(opt.Horizon), sb.odo.at(opt.Horizon)
	return res, nil
}

// met fills in the contact fields of res: contact at t, with the robots at
// wa and wb.
func (res *Result) met(t float64, wa, wb geom.Vec) {
	res.Met = true
	res.Time = t
	res.WhereA = wa
	res.WhereB = wb
	res.Gap = wa.Dist(wb)
}

// odometer accumulates the path length a robot has travelled: full lengths
// of completed segments plus the time-proportional part of the current one
// (all segments move at constant speed).
type odometer struct {
	traveled float64 // completed segments
	haveSeg  bool
	segStart float64
	segDur   float64
	segLen   float64
}

// observe notes the current segment; a change of segment start means the
// previous segment completed in full.
func (o *odometer) observe(start, dur, length float64) {
	if o.haveSeg && start != o.segStart {
		o.traveled += o.segLen
	}
	o.haveSeg = true
	o.segStart, o.segDur, o.segLen = start, dur, length
}

// halt finalises the last segment of an exhausted source.
func (o *odometer) halt() {
	if o.haveSeg {
		o.traveled += o.segLen
		o.haveSeg = false
	}
}

// at returns the distance travelled by absolute time t.
func (o *odometer) at(t float64) float64 {
	if !o.haveSeg || o.segDur == 0 {
		return o.traveled
	}
	frac := (t - o.segStart) / o.segDur
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return o.traveled + frac*o.segLen
}

// Search simulates the search problem of Section 2: the reference robot runs
// program from the origin; a static target sits at target; the robot sees it
// at distance r. It returns the first detection time.
//
// Search is searchWalk on one lane, whose vectors live on its stack.
func Search(program trajectory.Source, target geom.Vec, r float64, opt Options) (Result, error) {
	if !(opt.Horizon > 0) || !(r > 0) {
		return Result{}, ErrBadOptions
	}
	tx, ty, rr, h := [1]float64{target.X}, [1]float64{target.Y}, [1]float64{r}, [1]float64{opt.Horizon}
	ln := batch.Lanes{TX: tx[:], TY: ty[:], R: rr[:], Horizon: h[:]}
	var res [1]Result
	var errs [1]error
	active := [1]int{0} // lane 0
	searchWalk(program, &ln, opt, res[:], errs[:], active[:])
	return res[0], errs[0]
}

// searchWalk is the one search walk, behind Search and SearchBatch: it
// walks program once for every lane of ln listed in active, each with a
// positive horizon and radius, and writes each lane's Result or error.
// active is reused as scratch.
//
// The program is in the global frame, so its segments are placed as they
// are (Mover.Set). Every active lane sits at the same absolute time t: a
// lane's walk always advances t to the current segment's end, so the lanes
// move in lockstep. One pull, which supplies the segment's duration and
// length, one odometer step, one Mover.Set and one StaticSweep.Reset
// therefore serve all lanes, and each lane's work per segment is the
// contact test, in one loop per contact kind with the kind switch hoisted
// out. The walk allocates nothing per segment or per lane.
func searchWalk(program trajectory.Source, ln *batch.Lanes, opt Options, results []Result, errs []error, active []int) {
	var (
		cur      trajectory.Cursor
		seg      *segment.Seg // the current segment; still the last one when the program ends
		odo      odometer
		mov      motion.Mover
		sw       motion.StaticSweep
		t, start float64
	)
	cur.Init(program)
	for segs := 0; len(active) > 0; segs++ {
		next, dur, plen, ok := cur.Pull()
		if !ok {
			break
		}
		seg = next
		// On cancellation every still-active lane fails with the same error;
		// finished lanes keep their results, which are already final.
		if err := pollCtx(opt.Ctx, segs); err != nil {
			for _, i := range active {
				results[i] = Result{}
				errs[i] = err
			}
			return
		}
		segStart := start
		start = segStart + dur
		if dur == 0 {
			continue // a walker never surfaces zero-duration segments
		}
		odo.observe(segStart, dur, plen)
		mov.Set(seg, segStart, dur)
		sw.Reset(&mov, t)

		// Compact the active set in place: kept aliases active's array, and
		// only writes slots already read. A linear contact subtracts the
		// target as its static Mover evaluates it, {X+0, Y+0}.
		kept := active[:0]
		switch sw.Kind() {
		case motion.SweepLinear:
			for _, i := range active {
				tEnd := min(ln.Horizon[i], start)
				results[i].Intervals++
				hit, found := sw.LinearAt(geom.Vec{X: ln.TX[i] + 0, Y: ln.TY[i] + 0}, ln.R[i], tEnd)
				if found {
					endLane(&results[i], &odo, &mov, true, hit, ln.Target(i))
				} else if tEnd >= ln.Horizon[i] {
					endLane(&results[i], &odo, &mov, false, ln.Horizon[i], ln.Target(i))
				} else {
					kept = append(kept, i)
				}
			}
		case motion.SweepCircular:
			for _, i := range active {
				tEnd := min(ln.Horizon[i], start)
				results[i].Intervals++
				hit, found := sw.CircularAt(ln.Target(i), ln.R[i], tEnd)
				if found {
					endLane(&results[i], &odo, &mov, true, hit, ln.Target(i))
				} else if tEnd >= ln.Horizon[i] {
					endLane(&results[i], &odo, &mov, false, ln.Horizon[i], ln.Target(i))
				} else {
					kept = append(kept, i)
				}
			}
		}
		active = kept
		t = start
	}
	if len(active) == 0 {
		return
	}
	// The program ended before every horizon: the robot parks at its final
	// position and each remaining lane sees a constant gap.
	var finalPos geom.Vec
	if cur.Consumed() > 0 {
		finalPos = seg.End()
	}
	odo.halt()
	mov.SetStatic(finalPos)
	for _, i := range active {
		results[i].Intervals++
		p := ln.Target(i)
		endLane(&results[i], &odo, &mov, mov.At(t).Dist(p) <= ln.R[i], t, p)
	}
}

// endLane ends a search lane at time t: with contact there when found,
// otherwise with the gap to the target p.
func endLane(res *Result, odo *odometer, mov *motion.Mover, found bool, t float64, p geom.Vec) {
	res.DistanceA = odo.at(t)
	if !found {
		res.Gap = mov.At(t).Dist(p)
		return
	}
	// The target's static Mover places it at {X+0, Y+0}.
	res.met(t, mov.At(t), geom.Vec{X: p.X + 0, Y: p.Y + 0})
}

// Instance describes one rendezvous instance: the attributes of the second
// robot R′, its initial displacement D (the vector d of the paper, pointing
// from R to R′), and the shared visibility radius R.
type Instance struct {
	Attrs frame.Attributes
	D     geom.Vec
	R     float64
}

// Validate reports whether the instance is well-formed: legal attributes,
// positive visibility, and distinct initial positions.
func (in Instance) Validate() error {
	if err := in.Attrs.Validate(); err != nil {
		return err
	}
	if !(in.R > 0) {
		return errors.New("sim: visibility radius must be positive")
	}
	if in.D == (geom.Vec{}) {
		return errors.New("sim: robots must start at different locations")
	}
	return nil
}

// referenceFrame is the reference robot R's frame: the identity map from the
// origin, at unit clock.
var referenceFrame = frame.Reference().Frame(geom.Zero)

// Rendezvous simulates both robots executing the same local-frame program:
// the reference robot R from the origin in the reference frame, and R′ from
// displacement in.D under in.Attrs. Rendezvous is declared when their
// distance first drops to in.R.
//
// Each robot pulls the local program through its own cursor and applies its
// frame at placement (FirstMeetingShared); a twin of the reference robot
// (v = 1, τ = 1, φ = 0, χ = +1) takes the twin walk.
func Rendezvous(program trajectory.Source, in Instance, opt Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return FirstMeetingShared(program, referenceFrame, in.Attrs.Frame(in.D), in.R, opt)
}

// RendezvousAsymmetric simulates two robots running *different* local-frame
// programs (used by ablation experiments, e.g. one robot waiting). The
// reference robot runs programA; R′ runs programB under in.Attrs.
func RendezvousAsymmetric(programA, programB trajectory.Source, in Instance, opt Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return FirstMeetingFramed(programA, referenceFrame, programB, in.Attrs.Frame(in.D), in.R, opt)
}
