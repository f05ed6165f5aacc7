package sim

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// This file holds the batched (struct-of-arrays) entry points. Each walks
// one shared program stream once per batch instead of once per instance,
// bit-identical to the scalar paths per lane:
//
//   - SearchBatch is the search walk itself, searchWalk, on every valid
//     lane of the batch; Search runs it on one lane.
//
//   - RendezvousBatch and Tape.Rendezvous interleave two streams per lane
//     (the frame dilation shifts segment boundaries per lane), so lanes walk
//     independently through the scalar walk, meet — but their streams read
//     one Tape of raw segments with the raw duration/length the generator
//     supplied, and each lane's frame constants are computed once per lane
//     (segment.Frame): a lane places raw tape segments under its frame
//     (Frame.Duration, Mover.SetFramed). Generation and trig amortize across
//     the batch. RendezvousBatch reads a private tape; Tape.Rendezvous
//     reads a tape shared by several calls, which may run on several
//     goroutines at once, so a sweep's lane chunks share one recording of
//     the program.

// SearchBatch runs Search for every lane of ln (target TX/TY, radius R,
// horizon Horizon) against one shared program. Results and errors are
// per lane and bit-identical to the scalar Search calls; opt.Horizon is
// ignored in favour of the per-lane horizons.
func SearchBatch(program trajectory.Source, ln *batch.Lanes, opt Options) ([]Result, []error) {
	n := ln.Len()
	results := make([]Result, n)
	errs := make([]error, n)
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !(ln.Horizon[i] > 0) || !(ln.R[i] > 0) {
			errs[i] = ErrBadOptions
			continue
		}
		active = append(active, i)
	}
	searchWalk(program, ln, opt, results, errs, active)
	return results, errs
}

// Tape is a rendezvous program recorded once and read by any number of
// batch calls. Every lane walks the same raw local program, since frames
// are applied at placement, so one tape can serve every row and every lane
// chunk of a sweep: the program is generated once per tape, straight into
// the tape's pages, with each segment's raw duration and length as its
// generator supplies them — the quantities every lane's framed walk
// places with two multiplications (segment.Frame.Duration and Norm).
//
// A tape records at most tapeLen segments (6.3 MB), so its memory is
// bounded whatever the horizon. A lane that walks past them starts its own
// cursor over the program, skips the recorded prefix and goes on pulling
// like the scalar walk, so its result stays bit-identical; only lanes on
// the infeasible side of Theorem 4 walk that far on the paper's programs.
//
// A Tape is safe for concurrent readers: Rendezvous may run on several
// goroutines at once, each with its own lanes. Recorded segments live in
// pages that never move. A reader checks the atomic published count and
// reads published segments in place without a lock; a reader that needs a
// later segment records more from the tape's one cursor under a mutex.
// Every lane's walk is a pure function of the program and the lane, so
// results are bit-identical to the scalar walks whatever the order and
// interleaving of the readers.
type Tape struct {
	n     atomic.Int64 // published segments; entries below n never change
	mu    sync.Mutex   // serializes recording: cur, done, pages, entries past n
	src   trajectory.Source
	cur   trajectory.Cursor
	done  bool // the program ended at n segments
	pages [tapePages][]tapeEntry
}

// tapeEntry is one recorded segment with its raw duration and length.
type tapeEntry struct {
	seg      segment.Seg
	dur, len float64
}

// Tape page geometry. Page 0 holds segments [0, 64) and each page after it
// doubles, up to tapeLen segments in tapePages pages: a short walk
// allocates one small page, a long one no more than twice what it reads,
// and no page is ever copied. Recording runs to a multiple of tapeStep, so
// the leading reader takes the mutex once per tapeStep segments.
const (
	tapeShift = 6
	tapeLen   = 1 << 16
	tapePages = 16 - tapeShift + 1 // 64 + 64 + 128 + … + 2^15 = tapeLen
	tapeStep  = 32
)

// NewTape returns a tape over program; nothing is generated until a reader
// needs it.
func NewTape(program trajectory.Source) *Tape {
	tp := &Tape{}
	tp.init(program)
	return tp
}

func (tp *Tape) init(program trajectory.Source) {
	tp.src = program
	tp.cur.Init(program)
}

// tapeSlot locates segment i < tapeLen: its page and the offset in that
// page. Page p > 0 starts at segment 2^(p+5) and holds as many segments.
func tapeSlot(i int) (page, off int) {
	page = bits.Len(uint(i) >> tapeShift)
	if page == 0 {
		return 0, i
	}
	return page, i - 1<<(page+tapeShift-1)
}

// entry returns segment i < tapeLen, recording it first when it is not yet
// published; nil when the program ends before it.
func (tp *Tape) entry(i int) *tapeEntry {
	if int64(i) >= tp.n.Load() && !tp.record(i) {
		return nil
	}
	page, off := tapeSlot(i)
	return &tp.pages[page][off]
}

// record pulls segments from the cursor, with the raw durations and
// lengths it supplies, until segment i and the rest of its tapeStep block
// are published, and reports whether segment i exists. A new page is
// allocated before the count that makes it readable is published.
func (tp *Tape) record(i int) bool {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	n := int(tp.n.Load())
	for ; !tp.done && (n <= i || n%tapeStep != 0); n++ {
		seg, dur, length, ok := tp.cur.Pull()
		if !ok {
			tp.done = true
			break
		}
		page, off := tapeSlot(n)
		if off == 0 {
			// Page 0 holds 64 segments, every later page as many as precede it.
			tp.pages[page] = make([]tapeEntry, max(n, 1<<tapeShift))
		}
		tp.pages[page][off] = tapeEntry{seg: *seg, dur: dur, len: length}
	}
	tp.n.Store(int64(n))
	return i < n
}

// Rendezvous runs the scalar Rendezvous for every lane of ln against the
// tape's program, like RendezvousBatch. Several goroutines may call it at
// once on one tape.
func (tp *Tape) Rendezvous(ln *batch.Lanes, opt Options) ([]Result, []error) {
	var st lanePair
	return tp.meet(ln, opt, &st)
}

// RendezvousBatch runs Rendezvous for every lane of ln against one shared
// program, validating each lane's instance first, exactly like the scalar
// Rendezvous. Results and errors are per lane and bit-identical. It reads a
// private Tape; callers with several batches over one program share a Tape
// instead.
func RendezvousBatch(program trajectory.Source, ln *batch.Lanes, opt Options) ([]Result, []error) {
	// One allocation holds the tape and both walk states.
	var w struct {
		tp Tape
		st lanePair
	}
	w.tp.init(program)
	return w.tp.meet(ln, opt, &w.st)
}

// lanePair is the walk state of one lane, reused by every lane of a call:
// the batch adds no per-lane heap allocations beyond the shared tape.
type lanePair struct{ sa, sb stream }

// meet walks every lane of ln through meet over the tape, with st as the
// walk state. Both robots of a lane run the tape's one program, so meet may
// take the twin walk.
func (tp *Tape) meet(ln *batch.Lanes, opt Options, st *lanePair) ([]Result, []error) {
	n := ln.Len()
	results := make([]Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		in := Instance{Attrs: ln.Attrs(i), D: ln.Target(i), R: ln.R[i]}
		if err := in.Validate(); err != nil {
			errs[i] = err
			continue
		}
		lopt := opt
		lopt.Horizon = ln.Horizon[i]
		if !(lopt.Horizon > 0) || !(in.R > 0) {
			errs[i] = ErrBadOptions
			continue
		}
		fb := in.Attrs.Frame(in.D)
		st.sa.set(tp, &referenceFrame)
		st.sa.begin(tp.src)
		st.sb.set(tp, &fb)
		results[i], errs[i] = meet(&st.sa, &st.sb, tp.src, true, in.R, lopt)
	}
	return results, errs
}
