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
// reduction of rendezvous to search). Only the remaining intervals iterate
// by conservative safe advancement: arcs with different ω (τ ≠ 1 or
// χ = −1), an arc against a moving line, and modulated segments. Durations
// are exact, so measured meeting times are directly comparable with the
// paper's closed-form analysis.
//
// There are two walks, one per problem. Search drives the program
// generator directly with a callback: one stream against a static target
// needs no merge, no cursor and no second Mover. The rendezvous walk, meet,
// merges two streams and is the one loop behind FirstMeeting,
// FirstMeetingFramed and every lane of the batched rendezvous kernels. A
// stream pulls value-typed segments either through its own
// trajectory.Cursor — an explicit resumable cursor over the source, instead
// of iter.Pull coroutines — or, on a batch lane, from a tape of raw
// segments shared by the whole row. Both walks are allocation-free per
// segment; the per-segment motions live in caller-owned motion.Mover
// storage. Search is not folded into a one-lane SearchBatch because that
// would add per-call lane slices to the hot path the allocation gates pin.
//
// A robot's frame x ↦ vτ·Rot(φ)·Diag(1,χ)·x + d on clock τ is fixed for the
// whole walk, so the rendezvous walks apply it at placement rather than per
// segment: Rendezvous and RendezvousAsymmetric (through FirstMeetingFramed)
// pull each robot's *local* program and place every raw segment under the
// robot's segment.Frame, whose constants — operator norm, similarity
// verdict, scale, handedness — are computed once. Durations and lengths go
// through Frame.Scale and motions through motion.Mover.SetFramed; both run
// the arithmetic of the framed segment in the same order, so the results
// are bit-identical to FirstMeeting over the Transform-framed programs.
// FirstMeeting itself walks opaque global sources as they are.
//
// For whole grid rows of instances sharing one algorithm shape, the batched
// SoA kernels (SearchBatch, RendezvousBatch, FirstMeetingBatch over
// batch.Lanes) amortize segment generation across all lanes: SearchBatch
// walks the shared program once, hoisting the per-segment motion setup out
// of the lane loop and reducing per-lane work to a closed-form contact test;
// the rendezvous variants record the generated stream into a tape that each
// lane's pair of streams replays through meet. Results are bit-identical to
// the scalar entry points, lane for lane — pinned by differential tests and
// FuzzBatchMatchesScalar.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

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
	// path and the equal-ω arc×arc closed form). Zero selects 1e-9·r.
	Slack float64
	// MaxIters bounds conservative detection work per segment interval.
	// Zero selects a generous default.
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

// ErrBadOptions is returned for a non-positive horizon or radius.
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

// stream is one robot's half of the merged two-source walk: the source of
// its segments, the current segment placed on the absolute time axis, the
// odometer, and the reusable motion storage.
//
// The segments come from the stream's own resumable cursor or, on a batch
// lane, from a tape shared by every lane of the row. A tape segment is read
// in place as tp.segs[idx-1], addressed by index rather than held by
// pointer or copied, because the tape's slice moves when it grows.
//
// With a frame, the source yields the robot's local program and the frame
// is applied at placement: durations and lengths go through Frame.Scale and
// the motion through Mover.SetFramed, both bit-identical to walking the
// Transform-framed program. Without one the cursor yields global segments,
// placed as they are.
type stream struct {
	cur      trajectory.Cursor
	tp       *tape // the shared tape, when the stream replays one
	idx      int   // index of the next tape segment
	fr       segment.Frame
	framed   bool
	seg      segment.Seg // current cursor segment (raw local when framed)
	segDur   float64     // its global duration, computed once per segment
	segLen   float64     // its global path length, computed once per segment
	start    float64     // absolute start time of the current segment
	has      bool
	finalPos geom.Vec
	odo      odometer
	mov      motion.Mover
	end      float64 // absolute end of the current motion (+Inf when halted)
}

// init readies the stream over src under fr (nil: src is global) and pulls
// its first segment.
func (s *stream) init(src trajectory.Source, fr *segment.Frame) {
	s.cur.Init(src)
	if fr != nil {
		s.fr, s.framed = *fr, true
	}
	s.next()
}

// reset re-aims the stream at the start of tape tp under fr, clearing all
// walk state, and pulls its first segment. A tape stream never uses its
// cursor, so there is nothing to close.
func (s *stream) reset(tp *tape, fr *segment.Frame) {
	*s = stream{tp: tp, fr: *fr, framed: true}
	s.next()
}

// next advances to the following segment, accumulating absolute start times
// exactly like the former per-stream walker (a running sum of durations).
func (s *stream) next() {
	if s.has {
		s.start += s.segDur
	}
	if !s.pull() {
		// The stream is exhausted: only now is the final position needed
		// (End() costs a sincos for arcs, so it is not computed per
		// segment). The current segment is still the last one.
		if s.has {
			if s.framed {
				last := s.fr.Apply(s.raw())
				s.finalPos = last.End()
			} else {
				s.finalPos = s.raw().End()
			}
		}
		s.has = false
		return
	}
	if s.framed {
		s.segDur, s.segLen = s.fr.Scale(s.segDur, s.segLen)
	}
	s.has = true
}

// pull makes the source's next segment current, with its raw duration and
// length in segDur and segLen. It reports false, leaving the current
// segment in place, when the source is exhausted.
func (s *stream) pull() bool {
	if s.tp != nil {
		if !s.tp.get(s.idx) {
			return false
		}
		s.segDur, s.segLen = s.tp.durs[s.idx], s.tp.lens[s.idx]
		s.idx++
		return true
	}
	seg, ok := s.cur.Next()
	if !ok {
		return false
	}
	s.seg = seg
	s.segDur, s.segLen = s.seg.DurationAndLength()
	return true
}

// raw returns the current segment as the source yielded it (local when
// framed).
func (s *stream) raw() *segment.Seg {
	if s.tp != nil {
		return &s.tp.segs[s.idx-1]
	}
	return &s.seg
}

// motionAt positions the stream's motion at absolute time t: it advances
// past segments ending at or before t (zero-duration segments never
// surface), refreshes the odometer, and fills the Mover. Past the end of a
// finite source the mover is static forever (end = +Inf).
func (s *stream) motionAt(t float64) {
	advanced := false
	for s.has && s.start+s.segDur <= t {
		s.next()
		advanced = true
	}
	if !s.has {
		s.odo.halt()
		if advanced || s.end != math.Inf(1) {
			s.mov.SetStatic(s.finalPos)
			s.end = math.Inf(1)
		}
		return
	}
	s.odo.observe(s.start, s.segDur, s.segLen)
	if advanced || s.end == 0 {
		if s.framed {
			s.mov.SetFramed(s.raw(), &s.fr, s.start, s.segDur)
		} else {
			s.mov.Set(s.raw(), s.start, s.segDur)
		}
		s.end = s.start + s.segDur
	}
}

// close releases the stream's cursor.
func (s *stream) close() { s.cur.Close() }

// FirstMeeting simulates two global-frame trajectories from time 0 and
// returns the first time their distance is at most r. Sources may be finite
// (the mover halts at its final position) or infinite.
//
// The two streams are walked by one merged loop over value-typed segments:
// each iteration holds one segment per robot, resolves first contact on the
// overlap interval, and advances whichever stream ends first. No segment is
// boxed and no pull coroutine runs; see trajectory.Cursor for how the push
// generators are suspended and resumed.
func FirstMeeting(a, b trajectory.Source, r float64, opt Options) (Result, error) {
	return firstMeeting(a, nil, b, nil, r, opt)
}

// FirstMeetingFramed is FirstMeeting of the local programs programA and
// programB placed under the frames fa and fb:
// FirstMeeting(Transform(programA, fa), Transform(programB, fb), r, opt),
// bit for bit. The frames are applied at placement (Mover.SetFramed), so
// the walk builds no framed segment.
func FirstMeetingFramed(programA trajectory.Source, fa segment.Frame, programB trajectory.Source, fb segment.Frame, r float64, opt Options) (Result, error) {
	return firstMeeting(programA, &fa, programB, &fb, r, opt)
}

// firstMeeting runs meet over two cursor streams; a nil frame marks a
// global source.
func firstMeeting(a trajectory.Source, fa *segment.Frame, b trajectory.Source, fb *segment.Frame, r float64, opt Options) (Result, error) {
	if opt.Horizon <= 0 || r <= 0 {
		return Result{}, ErrBadOptions
	}
	// One allocation holds both streams: the cursors' cached collector
	// closures capture pointers into it, so it escapes as a single object.
	var w struct{ sa, sb stream }
	w.sa.init(a, fa)
	defer w.sa.close()
	w.sb.init(b, fb)
	defer w.sb.close()
	return meet(&w.sa, &w.sb, r, opt)
}

// meet is the merged walk of two ready streams, the one loop behind
// FirstMeeting, FirstMeetingFramed and every batch lane. opt.Horizon and r
// must be positive.
func meet(sa, sb *stream, r float64, opt Options) (Result, error) {
	mopt := detectOptions(opt, r)
	var res Result
	t := 0.0
	for t < opt.Horizon {
		if err := pollCtx(opt.Ctx, res.Intervals); err != nil {
			return Result{}, err
		}
		sa.motionAt(t)
		sb.motionAt(t)

		intervalEnd := math.Min(opt.Horizon, math.Min(sa.end, sb.end))
		if math.IsInf(sa.end, 1) && math.IsInf(sb.end, 1) {
			// Both halted: the gap is constant forever.
			res.Intervals++
			gap := sa.mov.At(t).Dist(sb.mov.At(t))
			res.DistanceA, res.DistanceB = sa.odo.at(t), sb.odo.at(t)
			if gap <= r {
				return met(res, &sa.mov, &sb.mov, t), nil
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
			return met(res, &sa.mov, &sb.mov, hit), nil
		}
		t = intervalEnd
	}
	res.Gap = sa.mov.At(opt.Horizon).Dist(sb.mov.At(opt.Horizon))
	res.DistanceA, res.DistanceB = sa.odo.at(opt.Horizon), sb.odo.at(opt.Horizon)
	return res, nil
}

// met fills in the contact fields of a result.
func met(res Result, ma, mb *motion.Mover, t float64) Result {
	res.Met = true
	res.Time = t
	res.WhereA = ma.At(t)
	res.WhereB = mb.At(t)
	res.Gap = res.WhereA.Dist(res.WhereB)
	return res
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
// The results are bit-identical to
// FirstMeeting(program, trajectory.Stationary(target), r, opt), but the
// program is walked with a plain callback loop — no cursor at all — and the
// per-segment motion lives in a reused Mover, so the search hot path
// performs no per-segment allocations.
func Search(program trajectory.Source, target geom.Vec, r float64, opt Options) (Result, error) {
	if opt.Horizon <= 0 || r <= 0 {
		return Result{}, ErrBadOptions
	}
	mopt := detectOptions(opt, r)
	var tgt motion.Mover
	tgt.SetStatic(target)

	// The range-over-func loop body compiles to a closure over the walk
	// state; keeping the state in one struct makes that a single capture
	// (one allocation) instead of one heap box per local.
	w := searchWalk{tgt: tgt, target: target, r: r, horizon: opt.Horizon, mopt: mopt, ctx: opt.Ctx}
	for seg := range program {
		if !w.step(&seg) {
			break
		}
	}
	if w.retErr != nil {
		return Result{}, w.retErr
	}
	if !w.finished {
		// The program was exhausted before the horizon: the robot parks at
		// its final position and the gap is constant forever.
		var finalPos geom.Vec
		if w.haveSeg {
			finalPos = w.lastSeg.End()
		}
		w.odo.halt()
		w.res.Intervals++
		w.mov.SetStatic(finalPos)
		gap := w.mov.At(w.t).Dist(target)
		w.res.DistanceA, w.res.DistanceB = w.odo.at(w.t), 0
		if gap <= r {
			return met(w.res, &w.mov, &w.tgt, w.t), nil
		}
		w.res.Gap = gap
	}
	return w.res, nil
}

// searchWalk is the mutable state of one Search walk.
type searchWalk struct {
	res        Result
	odo        odometer
	mov, tgt   motion.Mover
	lastSeg    segment.Seg // last non-degenerate program segment seen
	haveSeg    bool
	retErr     error
	t, start   float64
	finished   bool // contact found, error, or horizon reached mid-stream
	target     geom.Vec
	r, horizon float64
	mopt       motion.Options
	ctx        context.Context
}

// step processes one program segment and reports whether the walk wants
// more segments.
func (w *searchWalk) step(seg *segment.Seg) bool {
	if err := pollCtx(w.ctx, w.res.Intervals); err != nil {
		w.retErr = err
		w.finished = true
		return false
	}
	dur, plen := seg.DurationAndLength()
	segStart := w.start
	w.start = segStart + dur
	w.lastSeg, w.haveSeg = *seg, true // End() is computed only on exhaustion
	if dur == 0 {
		return true // a walker never surfaces zero-duration segments
	}
	w.odo.observe(segStart, dur, plen)
	w.mov.Set(seg, segStart, dur)
	intervalEnd := math.Min(w.horizon, segStart+dur)
	w.res.Intervals++
	hit, found, err := motion.Contact(&w.mov, &w.tgt, w.r, w.t, intervalEnd, w.mopt)
	if err != nil {
		w.retErr = fmt.Errorf("interval [%v, %v]: %w", w.t, intervalEnd, err)
		w.finished = true
		return false
	}
	if found {
		w.res.DistanceA, w.res.DistanceB = w.odo.at(hit), 0
		w.res = met(w.res, &w.mov, &w.tgt, hit)
		w.finished = true
		return false
	}
	w.t = intervalEnd
	if w.t >= w.horizon {
		w.res.Gap = w.mov.At(w.horizon).Dist(w.target)
		w.res.DistanceA, w.res.DistanceB = w.odo.at(w.horizon), 0
		w.finished = true
		return false
	}
	return true
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
	if in.R <= 0 {
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
// Each robot walks the local program through its own cursor and applies its
// frame at placement (FirstMeetingFramed); the result is bit-identical to
// FirstMeeting(Reference().Apply(program, 0), Attrs.Apply(program, D)).
func Rendezvous(program trajectory.Source, in Instance, opt Options) (Result, error) {
	return RendezvousAsymmetric(program, program, in, opt)
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
