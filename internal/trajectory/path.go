package trajectory

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// timed is a segment placed on the absolute time axis.
type timed struct {
	seg        segment.Seg
	start, end float64
}

// Path consumes a Source lazily and answers position queries at absolute
// times. Segments are cached as they are pulled, so queries may be made in
// any order; the cache grows only as far forward as the largest time
// queried.
//
// A Path places its source under a robot's frame: each raw segment's
// duration and every position go through the frame, so the path is the
// robot's global trajectory.
type Path struct {
	cur   Cursor
	fr    *segment.Frame
	segs  []timed
	total float64 // end time of last cached segment
}

// NewPath starts consuming src, placed under the frame fr (nil: the
// identity map on the source's own clock). The path begins at time 0 at the
// first segment's start point.
func NewPath(src Source, fr *segment.Frame) *Path {
	if fr == nil {
		id := segment.NewFrame(geom.IdentityAffine, 1)
		fr = &id
	}
	p := &Path{fr: fr}
	p.cur.Init(src)
	return p
}

// extendTo pulls segments until the cached timeline covers time t or the
// source is exhausted.
func (p *Path) extendTo(t float64) {
	for p.total <= t {
		seg, d, _, ok := p.cur.Pull()
		if !ok {
			return // the cursor stays exhausted
		}
		d = p.fr.Duration(seg, d)
		p.segs = append(p.segs, timed{seg: *seg, start: p.total, end: p.total + d})
		p.total += d
	}
}

// find returns the index of the cached segment containing time t, assuming
// the cache covers t. Times on a boundary belong to the later segment.
func (p *Path) find(t float64) int {
	lo, hi := 0, len(p.segs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.segs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Position returns the position at absolute time t. Times before 0 clamp to
// the start; times past the end of a finite source clamp to the final
// position (the robot halts where its program ends).
func (p *Path) Position(t float64) geom.Vec {
	p.extendTo(t)
	if len(p.segs) == 0 {
		return geom.Zero
	}
	if t <= 0 {
		start, _ := p.fr.Endpoints(&p.segs[0].seg)
		return start
	}
	if t >= p.total {
		_, end := p.fr.Endpoints(&p.segs[len(p.segs)-1].seg)
		return end
	}
	ts := &p.segs[p.find(t)]
	return p.fr.Position(&ts.seg, t-ts.start)
}
