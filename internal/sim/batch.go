package sim

import (
	"fmt"

	"math"

	"repro/internal/batch"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// This file holds the batched (struct-of-arrays) counterparts of Search and
// FirstMeeting. Both walk one shared program stream once per batch instead
// of once per instance, and are bit-identical to the scalar paths per lane:
//
//   - SearchBatch exploits the search walk's lockstep invariant — the scalar
//     walk always advances t to the current segment's end, so every
//     still-active lane of a shared program sits at the same absolute time.
//     One segment pull, one DurationAndLength, one odometer step and one
//     Mover.Set therefore serve all lanes, and per-lane work reduces to the
//     closed-form contact check, evaluated by motion.StaticSweep as a tight
//     loop with the kind switch hoisted out.
//
//   - FirstMeetingBatch/RendezvousBatch interleave two streams per lane
//     (the frame dilation shifts segment boundaries per lane), so lanes walk
//     independently through the scalar walk, meet — but their streams read
//     one shared tape of raw segments with the raw duration/length computed
//     once, and each lane's frame constants are computed once per lane
//     (segment.Frame): a lane places raw tape segments under its frame
//     (Mover.SetFramed) and never builds a framed segment. Generation,
//     trig, and cursor overhead amortize across the batch.

// SearchBatch runs Search for every lane of ln (target TX/TY, radius R,
// horizon Horizon) against one shared program. Results and errors are
// per lane and bit-identical to the scalar Search calls; opt.Horizon is
// ignored in favour of the per-lane horizons.
func SearchBatch(program trajectory.Source, ln *batch.Lanes, opt Options) ([]Result, []error) {
	n := ln.Len()
	results := make([]Result, n)
	errs := make([]error, n)

	// Per-lane constants. b0 is the target as the scalar static Mover
	// evaluates it — Static(p).At(t) = {p.X+0, p.Y+0} for any finite t ≥ 0 —
	// hoisted out of the walk entirely.
	b0x := make([]float64, n)
	b0y := make([]float64, n)
	mopts := make([]motion.Options, n)
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if ln.Horizon[i] <= 0 || ln.R[i] <= 0 {
			errs[i] = ErrBadOptions
			continue
		}
		b0x[i] = ln.TX[i] + 0
		b0y[i] = ln.TY[i] + 0
		mopts[i] = detectOptions(opt, ln.R[i])
		active = append(active, i)
	}

	// Shared walk state: identical to searchWalk minus the per-lane fields.
	// All active lanes share t (the lockstep invariant), the odometer, and
	// the current segment's Mover.
	var (
		odo      odometer
		mov      motion.Mover
		lastSeg  segment.Seg
		haveSeg  bool
		t, start float64
	)
	segs := 0
	for seg := range program {
		if len(active) == 0 {
			return results, errs
		}
		// The shared walk polls the context like the scalar loops do; on
		// cancellation every still-active lane fails with the same error
		// (finished lanes keep their results — they are already final).
		if err := pollCtx(opt.Ctx, segs); err != nil {
			for _, i := range active {
				results[i] = Result{}
				errs[i] = err
			}
			return results, errs
		}
		segs++
		dur, plen := seg.DurationAndLength()
		segStart := start
		start = segStart + dur
		lastSeg, haveSeg = seg, true
		if dur == 0 {
			continue // a walker never surfaces zero-duration segments
		}
		odo.observe(segStart, dur, plen)
		mov.Set(&seg, segStart, dur)
		sw := mov.StaticSweep(t)

		// Compact the active set in place: kept aliases active's array, and
		// only writes slots already read.
		kept := active[:0]
		switch sw.Kind() {
		case motion.SweepLinear:
			for _, i := range active {
				tEnd := math.Min(ln.Horizon[i], start)
				results[i].Intervals++
				hit, found := sw.LinearAt(geom.Vec{X: b0x[i], Y: b0y[i]}, ln.R[i], tEnd)
				if found {
					finishSearchMet(&results[i], &odo, &mov, hit, b0x[i], b0y[i])
					continue
				}
				if tEnd >= ln.Horizon[i] {
					finishSearchHorizon(&results[i], &odo, &mov, ln.Horizon[i], ln.TX[i], ln.TY[i])
					continue
				}
				kept = append(kept, i)
			}
		case motion.SweepCircular:
			for _, i := range active {
				tEnd := math.Min(ln.Horizon[i], start)
				results[i].Intervals++
				hit, found := sw.CircularAt(geom.Vec{X: ln.TX[i], Y: ln.TY[i]}, ln.R[i], tEnd)
				if found {
					finishSearchMet(&results[i], &odo, &mov, hit, b0x[i], b0y[i])
					continue
				}
				if tEnd >= ln.Horizon[i] {
					finishSearchHorizon(&results[i], &odo, &mov, ln.Horizon[i], ln.TX[i], ln.TY[i])
					continue
				}
				kept = append(kept, i)
			}
		default:
			for _, i := range active {
				tEnd := math.Min(ln.Horizon[i], start)
				results[i].Intervals++
				hit, found, err := sw.FallbackAt(geom.Vec{X: ln.TX[i], Y: ln.TY[i]}, ln.R[i], tEnd, mopts[i])
				if err != nil {
					results[i] = Result{}
					errs[i] = fmt.Errorf("interval [%v, %v]: %w", t, tEnd, err)
					continue
				}
				if found {
					finishSearchMet(&results[i], &odo, &mov, hit, b0x[i], b0y[i])
					continue
				}
				if tEnd >= ln.Horizon[i] {
					finishSearchHorizon(&results[i], &odo, &mov, ln.Horizon[i], ln.TX[i], ln.TY[i])
					continue
				}
				kept = append(kept, i)
			}
		}
		active = kept
		t = start
	}

	if len(active) > 0 {
		// Program exhausted before every horizon: the robot parks at its
		// final position and each remaining lane sees a constant gap.
		var finalPos geom.Vec
		if haveSeg {
			finalPos = lastSeg.End()
		}
		odo.halt()
		mov.SetStatic(finalPos)
		fp := mov.At(t)   // = {finalPos.X+0, finalPos.Y+0}, shared
		dist := odo.at(t) // post-halt: the full traveled length, shared
		for _, i := range active {
			res := &results[i]
			res.Intervals++
			gap := fp.Dist(geom.Vec{X: ln.TX[i], Y: ln.TY[i]})
			res.DistanceA, res.DistanceB = dist, 0
			if gap <= ln.R[i] {
				res.Met = true
				res.Time = t
				res.WhereA = fp
				res.WhereB = geom.Vec{X: b0x[i], Y: b0y[i]}
				res.Gap = res.WhereA.Dist(res.WhereB)
			} else {
				res.Gap = gap
			}
		}
	}
	return results, errs
}

// finishSearchMet fills lane res for a contact at hit, exactly like the
// scalar met() with the target's static mover.
func finishSearchMet(res *Result, odo *odometer, mov *motion.Mover, hit, b0x, b0y float64) {
	res.DistanceA, res.DistanceB = odo.at(hit), 0
	res.Met = true
	res.Time = hit
	res.WhereA = mov.At(hit)
	res.WhereB = geom.Vec{X: b0x, Y: b0y}
	res.Gap = res.WhereA.Dist(res.WhereB)
}

// finishSearchHorizon fills lane res for a horizon reached inside the current
// segment; tx/ty are the raw target (the scalar gap is measured against it).
func finishSearchHorizon(res *Result, odo *odometer, mov *motion.Mover, horizon, tx, ty float64) {
	res.Gap = mov.At(horizon).Dist(geom.Vec{X: tx, Y: ty})
	res.DistanceA, res.DistanceB = odo.at(horizon), 0
}

// tape materializes a shared program lazily: segments are pulled from one
// cursor on demand and kept, with the raw payload duration/length computed
// once per segment — the quantities every lane's framed walk rescales with
// two multiplications (segment.Frame.Scale).
type tape struct {
	cur  trajectory.Cursor
	segs []segment.Seg
	durs []float64
	lens []float64
	done bool
}

func (tp *tape) init(src trajectory.Source) { tp.cur.Init(src) }
func (tp *tape) close()                     { tp.cur.Close() }

// get ensures segment i is materialized, reporting false when the source is
// exhausted before it.
func (tp *tape) get(i int) bool {
	for len(tp.segs) <= i {
		if tp.done {
			return false
		}
		seg, ok := tp.cur.Next()
		if !ok {
			tp.done = true
			return false
		}
		dur, length := seg.DurationAndLength()
		tp.segs = append(tp.segs, seg)
		tp.durs = append(tp.durs, dur)
		tp.lens = append(tp.lens, length)
	}
	return true
}

// FirstMeetingBatch runs FirstMeeting for every rendezvous lane of ln
// against one shared program: lane i meets the reference-frame robot from
// the origin with the (V,Tau,Phi,Chi)-framed robot from displacement
// (TX,TY), radius R, horizon Horizon. It checks per-lane horizon/radius like
// FirstMeeting but does not validate the attributes (see RendezvousBatch);
// results and errors are bit-identical to the scalar calls.
func FirstMeetingBatch(program trajectory.Source, ln *batch.Lanes, opt Options) ([]Result, []error) {
	return meetingBatch(program, ln, opt, false)
}

// RendezvousBatch runs Rendezvous for every lane of ln against one shared
// program, validating each lane's instance first, exactly like the scalar
// Rendezvous. Results and errors are per lane and bit-identical.
func RendezvousBatch(program trajectory.Source, ln *batch.Lanes, opt Options) ([]Result, []error) {
	return meetingBatch(program, ln, opt, true)
}

func meetingBatch(program trajectory.Source, ln *batch.Lanes, opt Options, validate bool) ([]Result, []error) {
	n := ln.Len()
	results := make([]Result, n)
	errs := make([]error, n)

	// One allocation holds the tape and both walk states, which every lane
	// reuses: the batch adds no per-lane heap allocations beyond the
	// shared tape.
	var w struct {
		tp     tape
		sa, sb stream
	}
	w.tp.init(program)
	defer w.tp.close()
	for i := 0; i < n; i++ {
		in := Instance{Attrs: ln.Attrs(i), D: ln.Target(i), R: ln.R[i]}
		if validate {
			if err := in.Validate(); err != nil {
				errs[i] = err
				continue
			}
		}
		lopt := opt
		lopt.Horizon = ln.Horizon[i]
		if lopt.Horizon <= 0 || in.R <= 0 {
			errs[i] = ErrBadOptions
			continue
		}
		fb := in.Attrs.Frame(in.D)
		w.sa.reset(&w.tp, &referenceFrame)
		w.sb.reset(&w.tp, &fb)
		results[i], errs[i] = meet(&w.sa, &w.sb, in.R, lopt)
	}
	return results, errs
}
