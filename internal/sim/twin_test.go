package sim

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

// twinProgram returns the program a twin fuzz case walks: Algorithm 4 or
// 7, a finite prefix of Algorithm 4 (the twin walk hands over at its end),
// or Algorithm 4 whose segments turn modulated after a plain prefix (it
// hands over at the first modulated segment).
func twinProgram(kind uint8, horizon float64) trajectory.Source {
	switch kind % 4 {
	case 0:
		return algo.CumulativeSearch()
	case 1:
		return algo.Universal()
	case 2:
		return trajectory.Truncate(algo.CumulativeSearch(), horizon/2+1)
	default:
		prefix, _ := testutil.Segments(trajectory.Truncate(algo.CumulativeSearch(), horizon/4))
		return trajectory.Concat(trajectory.FromSlice(prefix),
			trajectory.ModulateSpeed(algo.CumulativeSearch(), []float64{0.8, 1.25}))
	}
}

// requireTwinDistances asserts what the twin walk relies on: a full walk
// of twins gives both robots the same path length, bit for bit.
func requireTwinDistances(t *testing.T, label string, res Result) {
	t.Helper()
	if math.Float64bits(res.DistanceA) != math.Float64bits(res.DistanceB) {
		t.Fatalf("%s: full walk of twins: DistanceA %v (%#x) != DistanceB %v (%#x)", label,
			res.DistanceA, math.Float64bits(res.DistanceA), res.DistanceB, math.Float64bits(res.DistanceB))
	}
}

// FuzzTwinMatchesFullWalk is the twin walk's differential target. It draws
// twin frames (any equal v, τ, φ, χ), a displacement, r and a horizon, and
// walks each case through the one-program entries, which take the twin
// walk, and through the full walk of two sources, comparing every Result
// field as bits (a tape lane against RendezvousAsymmetric on its instance,
// which FuzzBatchMatchesScalar shows the full tape walk equals). The entries are the scalar
// walk under two arbitrary twin frames (what gather pairs call), Rendezvous
// with R′ the reference robot's twin, and tape lanes, up to horizons that
// walk past the tape's 2^16 segments. Programs include finite and modulated
// ones; near puts r just under the robots' distance, so that the margin
// fails partway and the walk hands over.
func FuzzTwinMatchesFullWalk(f *testing.F) {
	f.Add(1.0, 1.0, 0.0, true, 0.0, 0.0, 1.0, 0.0, 0.25, 400.0, 0.0, uint8(0))
	f.Add(0.6, 2.0, 1.1, false, 3.0, -2.0, 0.5, 1.5, 0.1, 900.0, 0.0, uint8(1))
	f.Add(1.0, 1.0, 0.0, true, 0.0, 0.0, -0.5, 2.0, 0.3, 3e4, 0.0, uint8(2*4+0)) // tape lanes past 2^16
	f.Add(1.3, 0.5, 4.0, true, -1.0, 1.0, 2.0, 0.0, 0.5, 300.0, 0.0, uint8(2))   // finite
	f.Add(1.0, 1.0, 0.0, true, 0.0, 0.0, 1.0, 1.0, 0.2, 600.0, 0.0, uint8(4+3))  // modulated, Rendezvous
	f.Add(2.0, 1.0, 0.3, false, 1.0, 1.0, 1.0, 0.0, 0.25, 2000.0, 0.5, uint8(0)) // margin hand-over
	f.Add(1.0, 1.0, 0.0, true, 0.0, 0.0, 0.0, 1.0, 0.25, 1500.0, 0.3, uint8(4))
	f.Fuzz(func(t *testing.T, v, tau, phi float64, ccw bool, ax, ay, dx, dy, r, horizon, near float64, mode uint8) {
		clamp := func(x, lo, hi float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return lo
			}
			return math.Min(hi, math.Max(lo, x))
		}
		v = clamp(math.Abs(v), 0.25, 4)
		tau = clamp(math.Abs(tau), 0.25, 4)
		phi = clamp(phi, -10, 10)
		ax, ay = clamp(ax, -100, 100), clamp(ay, -100, 100)
		dx, dy = clamp(dx, -5, 5), clamp(dy, -5, 5)
		r = clamp(math.Abs(r), 0.01, 2)
		horizon = clamp(math.Abs(horizon), 0.5, 4e4)
		near = clamp(math.Abs(near), 0, 1)
		d := geom.V(dx, dy)
		if d == (geom.Vec{}) {
			d = geom.V(1, 0)
		}
		chi := frame.CCW
		if !ccw {
			chi = frame.CW
		}
		prog := mode % 4
		if prog == 3 {
			// Modulated segments run the safe advance; keep the walk short.
			horizon = math.Min(horizon, 1000)
		}
		// A small iteration budget bounds the safe advance near grazing
		// contact: both walks then fail alike.
		opt := Options{MaxIters: 10_000}
		if near > 0 {
			// r sits 10^(−14..−8) under |d|, with a slack too small to
			// matter, so the margin holds for the first segments and fails
			// once their reach grows.
			r = d.Norm() - math.Pow(10, -14+6*near)
			opt.Slack = 1e-300
		}
		mk := func() trajectory.Source { return twinProgram(prog, horizon) }
		opt.Horizon = horizon

		switch entry := mode / 4 % 3; entry {
		case 0: // scalar walk under two twin frames, as gather pairs call it
			attrs := frame.Attributes{V: v, Tau: tau, Phi: phi, Chi: chi}
			fa := attrs.Frame(geom.V(ax, ay))
			fb := attrs.Frame(geom.V(ax, ay).Add(d))
			if !fa.Twin(&fb) {
				t.Fatalf("equal attributes %+v give frames that are not twins", attrs)
			}
			want, wantErr := FirstMeetingFramed(mk(), fa, mk(), fb, r, opt)
			got, err := FirstMeetingShared(mk(), fa, fb, r, opt)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("err: twin %v, full %v", err, wantErr)
			}
			if wantErr == nil {
				requireTwinDistances(t, "scalar", want)
				requireBitIdentical(t, "scalar", got, want)
			}
		case 1: // Rendezvous: R′ is the reference robot's twin
			in := Instance{Attrs: frame.Reference(), D: d, R: r}
			want, wantErr := RendezvousAsymmetric(mk(), mk(), in, opt)
			got, err := Rendezvous(mk(), in, opt)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("err: twin %v, full %v", err, wantErr)
			}
			if wantErr == nil {
				requireTwinDistances(t, "rendezvous", want)
				requireBitIdentical(t, "rendezvous", got, want)
			}
		default: // tape lanes: twins among non-twins, one stream state
			var ln batch.Lanes
			ln.AddRendezvous(frame.Reference(), d, r, horizon)
			ln.AddRendezvous(frame.Attributes{V: v, Tau: tau, Phi: phi, Chi: chi}, d, r, math.Min(horizon, 300))
			ln.AddRendezvous(frame.Reference(), d.Scale(1.5), r, horizon/2)
			tp := NewTape(mk())
			got, errs := tp.Rendezvous(&ln, opt)
			for i := range got {
				in := Instance{Attrs: ln.Attrs(i), D: ln.Target(i), R: ln.R[i]}
				lopt := opt
				lopt.Horizon = ln.Horizon[i]
				want, wantErr := RendezvousAsymmetric(mk(), mk(), in, lopt)
				if (errs[i] == nil) != (wantErr == nil) {
					t.Fatalf("lane %d err: twin %v, full %v", i, errs[i], wantErr)
				}
				if wantErr == nil {
					if i != 1 {
						requireTwinDistances(t, "tape", want)
					}
					requireBitIdentical(t, "tape", got[i], want)
				}
			}
		}
	})
}

// TestTwinWalkHandsOver checks that the fuzz target's programs reach every
// exit of the twin walk: the horizon past the tape's 2^16 segments, the
// end of a finite program, a modulated segment, and a failed margin.
func TestTwinWalkHandsOver(t *testing.T) {
	ref := referenceFrame
	twin := frame.Reference().Frame(geom.V(1, 0))
	cases := []struct {
		name     string
		program  trajectory.Source
		r        float64
		opt      Options
		wantDone bool
		minTwin  int // intervals the twin walk must count before it stops
	}{
		{"horizon past the tape", algo.CumulativeSearch(), 0.25, Options{Horizon: 3e4}, true, tapeLen},
		{"end of program", twinProgram(2, 300), 0.25, Options{Horizon: 300}, false, 10},
		{"modulated segment", twinProgram(3, 600), 0.25, Options{Horizon: 600}, false, 10},
		{"margin", algo.CumulativeSearch(), 1 - 1e-12, Options{Horizon: 2000, Slack: 1e-300}, false, 10},
	}
	for _, c := range cases {
		var sa, sb stream
		sa.set(nil, &ref)
		sa.begin(c.program)
		sb.set(nil, &twin)
		var res Result
		_, done, err := twinWalk(&sa, &sb, &res, c.r+detectOptions(c.opt, c.r).Slack, c.opt)
		if err != nil || done != c.wantDone || res.Intervals < c.minTwin {
			t.Errorf("%s: done %v after %d intervals, err %v; want done %v after at least %d",
				c.name, done, res.Intervals, err, c.wantDone, c.minTwin)
		}
	}
	// The frames twin only with bit-equal linear parts and clocks.
	turned := frame.Attributes{V: 1, Tau: 1, Phi: 1e-300, Chi: frame.CCW}.Frame(geom.V(1, 0))
	mirrored := frame.Attributes{V: 1, Tau: 1, Chi: frame.CW}.Frame(geom.V(1, 0))
	slow := segment.NewFrame(geom.Affine{M: geom.Identity, T: geom.V(1, 0)}, 1+1e-16*2)
	for _, fb := range []segment.Frame{turned, mirrored, slow} {
		if ref.Twin(&fb) {
			t.Errorf("frame %+v twins the reference frame", fb)
		}
	}
}
