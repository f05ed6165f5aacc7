package algo

import (
	"iter"
	"math"
	"testing"

	"repro/internal/line"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// genCase is one program under test: its pull form and its frozen push
// form, built from the same parameters.
type genCase struct {
	name   string
	pull   trajectory.Source
	frozen frozenSource
}

// genCases builds every pulled program from the fuzzer's parameters: the
// paper's Algorithms 1–7, the ablations and baselines, line.Universal and
// the zig-zag, and the trajectory combinators over Algorithms 4 and 7. a
// and b are clamped into ranges that keep every program finite per segment
// and cheap to walk.
func genCases(a, b float64, k int) []genCase {
	unit := func(x float64) float64 { // x folded into [0, 1)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0.5
		}
		_, f := math.Modf(math.Abs(x))
		return f
	}
	ua, ub := unit(a), unit(b)
	delta := 1e-3 + 8*ua
	rho := delta*1e-4 + 0.5*ub
	k = k & 7
	n := k % 6
	t := 1e4*ua - 1
	factors := []float64{0.1 + 9.9*ua, 0.1 + 9.9*ub}[:1+k%2]
	var edge float64 // a segment boundary: the end of Search(1+k%3)
	for s := range frozenSearchRound(1 + k%3) {
		edge += s.Duration()
	}
	return []genCase{
		{"SearchCircle", SearchCircle(delta), frozenSearchCircle(delta)},
		{"SearchAnnulus", SearchAnnulus(delta, 3*delta, rho), frozenSearchAnnulus(delta, 3*delta, rho)},
		{"SearchRound", SearchRound(k), frozenSearchRound(k)},
		{"SearchRoundNoWait", SearchRoundNoWait(k), frozenSearchRoundNoWait(k)},
		{"CumulativeSearch", CumulativeSearch(), frozenCumulativeSearch()},
		{"SearchAll", SearchAll(n), frozenSearchAll(n)},
		{"SearchAllRev", SearchAllRev(n), frozenSearchAllRev(n)},
		{"Universal", Universal(), frozenUniversal()},
		{"UniversalNoRev", UniversalNoRev(), frozenUniversalNoRev()},
		{"UniversalNoInactive", UniversalNoInactive(), frozenUniversalNoInactive()},
		{"KnownVisibilitySearch", KnownVisibilitySearch(rho), frozenKnownVisibilitySearch(rho)},
		{"FixedPitchSweep", FixedPitchSweep(rho), frozenFixedPitchSweep(rho)},
		{"ExpandingRings", ExpandingRings(), frozenExpandingRings()},
		{"line.Universal", line.Universal(), frozenLineUniversal()},
		{"line.ZigZag", line.ZigZag(), frozenZigZag()},
		{"FromSlice", trajectory.FromSlice(frozenPrefix(frozenSearchRound(1), k)), frozenFromSlice(frozenPrefix(frozenSearchRound(1), k))},
		{"Concat", trajectory.Concat(SearchAll(n), SearchCircle(delta), SearchAllRev(n)),
			frozenConcat(frozenSearchAll(n), frozenSearchCircle(delta), frozenSearchAllRev(n))},
		{"Truncate", trajectory.Truncate(Universal(), t), frozenTruncate(frozenUniversal(), t)},
		{"CutAt", trajectory.CutAt(CumulativeSearch(), t), frozenCutAt(frozenCumulativeSearch(), t)},
		{"CutAtEdge", trajectory.CutAt(CumulativeSearch(), edge), frozenCutAt(frozenCumulativeSearch(), edge)},
		{"DelayStart", trajectory.DelayStart(Universal(), t/100), frozenDelayStart(frozenUniversal(), t/100)},
		{"DelayStartEmpty", trajectory.DelayStart(SearchAll(0), 1+ub), frozenDelayStart(frozenSearchAll(0), 1+ub)},
		{"FreezeDuring", trajectory.FreezeDuring(CumulativeSearch(), t, t+100*ub-1),
			frozenFreezeDuring(frozenCumulativeSearch(), t, t+100*ub-1)},
		{"FreezeDuringEdge", trajectory.FreezeDuring(CumulativeSearch(), edge, edge+1),
			frozenFreezeDuring(frozenCumulativeSearch(), edge, edge+1)},
		{"ModulateSpeed", trajectory.ModulateSpeed(Universal(), factors), frozenModulateSpeed(frozenUniversal(), factors)},
		{"FaultStack", trajectory.ModulateSpeed(trajectory.FreezeDuring(trajectory.DelayStart(CumulativeSearch(), 2*ub), t, t+3), factors),
			frozenModulateSpeed(frozenFreezeDuring(frozenDelayStart(frozenCumulativeSearch(), 2*ub), t, t+3), factors)},
	}
}

// frozenPrefix returns the first n segments of src.
func frozenPrefix(src frozenSource, n int) []segment.Seg {
	var segs []segment.Seg
	for s := range src {
		if len(segs) == n {
			break
		}
		segs = append(segs, s)
	}
	return segs
}

// checkGenMatchesFrozen pulls up to limit segments of c.pull and checks
// each segment, duration and length bit for bit against the frozen push
// form and its DurationAndLength, and that both end together. At segment
// copyAt it copies an algo generator's state (a plain value) and checks
// that the copy continues with the same segments as the original.
func checkGenMatchesFrozen(t *testing.T, c genCase, limit, copyAt int) {
	t.Helper()
	next, stop := iter.Pull(c.frozen)
	defer stop()
	g := c.pull.Start()
	var (
		copied  *gen
		after   []segment.Seg // the original's segments after the copy
		afterDL [][2]float64
	)
	for i := 0; i < limit; i++ {
		if i == copyAt {
			if pg, ok := g.(*gen); ok {
				cp := *pg
				copied = &cp
			}
		}
		seg, dur, length, ok := g.Next()
		want, wantOK := next()
		if ok != wantOK {
			t.Fatalf("%s: segment %d: pulled ok=%v, frozen ok=%v", c.name, i, ok, wantOK)
		}
		if !ok {
			break
		}
		wd, wl := want.DurationAndLength()
		if *seg != want || math.Float64bits(dur) != math.Float64bits(wd) || math.Float64bits(length) != math.Float64bits(wl) {
			t.Fatalf("%s: segment %d: pulled %#v (%v, %v), frozen %#v (%v, %v)", c.name, i, *seg, dur, length, want, wd, wl)
		}
		if copied != nil && len(after) < 512 {
			after = append(after, *seg)
			afterDL = append(afterDL, [2]float64{dur, length})
		}
	}
	if copied == nil {
		return
	}
	for i := range after {
		seg, dur, length, ok := copied.Next()
		if !ok || *seg != after[i] || dur != afterDL[i][0] || length != afterDL[i][1] {
			t.Fatalf("%s: copy taken at segment %d diverges at segment %d", c.name, copyAt, copyAt+i)
		}
	}
}

// FuzzGenMatchesFrozen pins the pull generators — Algorithms 1–7, the
// ablations and baselines, line.Universal and the zig-zag, and the
// trajectory constructors and combinators — to the frozen push generators
// they replaced (frozen_test.go), bit for bit, including the duration and
// length each pull supplies and copies of the algorithm state taken
// mid-stream. The seeds walk Algorithms 4 and 7 past 10⁵ segments.
func FuzzGenMatchesFrozen(f *testing.F) {
	f.Add(0.3, 0.7, 3, uint32(120_000), uint32(100_000))
	f.Add(0.9, 0.1, 6, uint32(4_000), uint32(17))
	f.Add(0.0, 0.5, 0, uint32(200), uint32(0))
	f.Add(0.51, 0.02, 5, uint32(20_000), uint32(9_999))
	f.Fuzz(func(t *testing.T, a, b float64, k int, limit, copyAt uint32) {
		lim := int(limit % 150_000)
		cp := int(copyAt) % (lim + 1)
		for _, c := range genCases(a, b, k) {
			l := lim
			if c.name == "ExpandingRings" {
				// The frozen copy's ring 64 radius 1<<63 overflows int64
				// and its circle panics: compare the first 63 rings
				// (TestExpandingRingsPastRing64 covers the rings after).
				l = min(l, 3*63)
			}
			checkGenMatchesFrozen(t, c, l, cp)
		}
	})
}
