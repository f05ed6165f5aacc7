package gather

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// refWalker is the per-robot forward walk the gathering detector used before
// the shared-clock walk: one cursor over the robot's frame-transformed
// program, durations recomputed per lookup.
type refWalker struct {
	cur       trajectory.Cursor
	seg       segment.Seg
	start     float64
	has       bool
	exhausted bool
	finalPos  geom.Vec
}

func (w *refWalker) advance() {
	if w.exhausted {
		return
	}
	var prevEnd float64
	if w.has {
		prevEnd = w.start + w.seg.Duration()
		w.finalPos = w.seg.End()
	}
	seg, ok := w.cur.Next()
	if !ok {
		w.exhausted = true
		w.has = false
		return
	}
	w.seg, w.start, w.has = seg, prevEnd, true
}

func (w *refWalker) segmentAt(t float64) (seg segment.Seg, start float64, ok bool) {
	for w.has && w.start+w.seg.Duration() <= t {
		w.advance()
	}
	if !w.has {
		return segment.Seg{}, 0, false
	}
	return w.seg, w.start, true
}

// referenceDiameterDrop is a frozen copy of the per-robot gathering walk:
// every robot regenerates its own framed program, every mover is refilled
// every interval, and the closing rate comes from sorting the speeds.
func referenceDiameterDrop(program trajectory.Source, in Instance, opt Options) (float64, bool, float64) {
	n := len(in.Robots)
	walkers := make([]refWalker, n)
	for i, r := range in.Robots {
		walkers[i].cur.Init(r.Attrs.Apply(program, r.Origin))
		walkers[i].advance()
		defer walkers[i].cur.Close()
	}
	slack := opt.Slack
	if slack <= 0 {
		slack = 1e-9 * in.R
	}
	movers := make([]motion.Mover, n)
	now := 0.0
	for now < opt.Horizon {
		intervalEnd := opt.Horizon
		allHalted := true
		for i := range walkers {
			w := &walkers[i]
			seg, start, alive := w.segmentAt(now)
			if !alive {
				movers[i].SetStatic(w.finalPos)
				continue
			}
			allHalted = false
			dur := seg.Duration()
			movers[i].Set(&seg, start, dur)
			if end := start + dur; end < intervalEnd {
				intervalEnd = end
			}
		}
		if allHalted {
			diam, _ := refDiameterAndRate(movers, now)
			if diam-in.R <= slack {
				return now, true, 0
			}
			return 0, false, diam
		}
		t := now
		for t < intervalEnd {
			diam, closeRate := refDiameterAndRate(movers, t)
			g := diam - in.R
			if g <= slack {
				return t, true, 0
			}
			if closeRate == 0 {
				break
			}
			t += g / closeRate
		}
		now = intervalEnd
	}
	diam, _ := refDiameterAndRate(movers, opt.Horizon)
	return 0, false, diam
}

func refDiameterAndRate(movers []motion.Mover, t float64) (diam, rate float64) {
	pos := make([]geom.Vec, len(movers))
	speeds := make([]float64, len(movers))
	for i := range movers {
		pos[i] = movers[i].At(t)
		speeds[i] = movers[i].SpeedBound()
	}
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if d := pos[i].Dist(pos[j]); d > diam {
				diam = d
			}
		}
	}
	sort.Float64s(speeds)
	n := len(speeds)
	return diam, speeds[n-1] + speeds[n-2]
}

// checkMatchesReference asserts that Simulate's gathering outcome is
// bit-identical to the reference walk's.
func checkMatchesReference(t *testing.T, program trajectory.Source, in Instance, opt Options) Result {
	t.Helper()
	got, err := Simulate(program, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	wt, wok, wdiam := referenceDiameterDrop(program, in, opt)
	if got.Gathered != wok || math.Float64bits(got.GatherTime) != math.Float64bits(wt) ||
		math.Float64bits(got.DiameterAtHorizon) != math.Float64bits(wdiam) {
		t.Fatalf("gathered=%v t=%v diam=%v, reference gathered=%v t=%v diam=%v",
			got.Gathered, got.GatherTime, got.DiameterAtHorizon, wok, wt, wdiam)
	}
	return got
}

// randomInstance derives an n-robot instance from seed: clocks from a small
// set so equal and mixed τ both occur, distinct origins in a 3×3 box.
func randomInstance(seed int64, n int) Instance {
	rng := rand.New(rand.NewSource(seed))
	taus := []float64{1, 1, 0.5, 2, 1.5}
	in := Instance{R: 0.05 + rng.Float64()}
	for len(in.Robots) < n {
		chi := frame.CCW
		if rng.Intn(2) == 1 {
			chi = frame.CW
		}
		r := Robot{
			Attrs: frame.Attributes{
				V:   0.25 + rng.Float64(),
				Tau: taus[rng.Intn(len(taus))],
				Phi: 2 * math.Pi * rng.Float64(),
				Chi: chi,
			},
			Origin: geom.V(3*rng.Float64(), 3*rng.Float64()),
		}
		in.Robots = append(in.Robots, r)
	}
	return in
}

// FuzzGatherMatchesReference: for random instances of 2..5 robots with
// mixed and equal clocks, the shared-clock walk's gathering outcome is
// bit-identical to the frozen per-robot walk's.
func FuzzGatherMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), 50.0)
	f.Add(int64(7), uint8(2), 200.0)
	f.Add(int64(42), uint8(5), 120.0)
	f.Add(int64(-3), uint8(4), 0.5)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, horizon float64) {
		if math.IsNaN(horizon) || horizon <= 0 || horizon > 200 {
			t.Skip()
		}
		in := randomInstance(seed, 2+int(n%4))
		if in.Validate() != nil {
			t.Skip()
		}
		checkMatchesReference(t, algo.CumulativeSearch(), in, Options{Horizon: horizon})
	})
}

// TestGatherMixedClocksMatchesReference pins a mixed-τ instance that
// gathers at t > 0 to the reference walk.
func TestGatherMixedClocksMatchesReference(t *testing.T) {
	in := Instance{
		Robots: []Robot{
			robot(1, 1, 0, frame.CCW, 0, 0),
			robot(0.5, 2, 0, frame.CCW, 0.3, 0),
			robot(0.75, 1, 1, frame.CW, 0, 0.3),
		},
		R: 0.25,
	}
	res := checkMatchesReference(t, algo.CumulativeSearch(), in, Options{Horizon: 200})
	if !res.Gathered || res.GatherTime <= 0 {
		t.Fatalf("gathered=%v at %v, want a gathering after t = 0", res.Gathered, res.GatherTime)
	}
}

// TestGatherFiniteProgramMatchesReference: a finite program ends before the
// horizon, so the walk leaves through the all-halted branch — with the
// parked robots apart, gathered, and (empty program) all parked at the
// global origin. The program's zero-duration wait never surfaces.
func TestGatherFiniteProgramMatchesReference(t *testing.T) {
	program := trajectory.FromSlice([]segment.Seg{
		segment.UnitLine(geom.Zero, geom.V(1, 0)).Seg(),
		segment.Wait{At: geom.V(1, 0)}.Seg(),
		segment.NewWait(geom.V(1, 0), 0.5).Seg(),
		segment.UnitLine(geom.V(1, 0), geom.V(1, 1)).Seg(),
	})
	for _, tc := range []struct {
		name     string
		program  trajectory.Source
		r        float64
		gathered bool
	}{
		{"apart", program, 0.25, false},
		{"gathered", program, 10, true},
		{"empty", trajectory.FromSlice(nil), 0.25, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := Instance{
				Robots: []Robot{
					robot(1, 1, 0, frame.CCW, 0, 0),
					robot(0.5, 2, 0, frame.CCW, 2, 0),
					robot(0.75, 1, 1, frame.CW, 0, 2),
				},
				R: tc.r,
			}
			res := checkMatchesReference(t, tc.program, in, Options{Horizon: 100})
			if res.Gathered != tc.gathered {
				t.Errorf("gathered=%v, want %v", res.Gathered, tc.gathered)
			}
		})
	}
}

// TestGatherAllocGate pins the allocation count of E10's "3 robots,
// distinct speeds" instance: the gathering walk shares one cursor among the
// three robots and recycles its stream batches, so the count stays flat in
// the horizon. Measured: 66 (~165k before the shared-clock walk). The
// ceiling adds one allocation for each of the run's 7 cursors (3 pairs × 2
// and the gathering walk): under the race detector sync.Pool drops a random
// quarter of its puts, so a cursor may reallocate its pooled first window.
func TestGatherAllocGate(t *testing.T) {
	const ceiling = 66 + 7
	in := Instance{
		Robots: []Robot{
			robot(1, 1, 0, frame.CCW, 0, 0),
			robot(0.5, 1, 0, frame.CCW, 1, 0),
			robot(0.75, 1, 0, frame.CCW, 0, 1),
		},
		R: 0.25,
	}
	run := func() {
		if _, err := Simulate(algo.CumulativeSearch(), in, Options{Horizon: 2e4}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(3, run); avg > ceiling {
		t.Errorf("Simulate: %v allocs/run, ceiling %d", avg, ceiling)
	}
}
