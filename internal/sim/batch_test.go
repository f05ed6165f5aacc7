package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/trajectory"
)

// requireBitIdentical fails unless got and want agree bit for bit in every
// field — the batch kernels' contract is exact replication of the scalar
// path, not approximate agreement.
func requireBitIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Met != want.Met || got.Intervals != want.Intervals {
		t.Fatalf("%s: got %+v, want %+v", label, got, want)
	}
	fields := [][2]float64{
		{got.Time, want.Time},
		{got.WhereA.X, want.WhereA.X}, {got.WhereA.Y, want.WhereA.Y},
		{got.WhereB.X, want.WhereB.X}, {got.WhereB.Y, want.WhereB.Y},
		{got.Gap, want.Gap},
		{got.DistanceA, want.DistanceA}, {got.DistanceB, want.DistanceB},
	}
	for fi, f := range fields {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: field %d differs: got %v (%#x), want %v (%#x)\ngot  %+v\nwant %+v",
				label, fi, f[0], math.Float64bits(f[0]), f[1], math.Float64bits(f[1]), got, want)
		}
	}
}

func searchPrograms() map[string]func() trajectory.Source {
	return map[string]func() trajectory.Source{
		"alg4":      algo.CumulativeSearch,
		"truncated": func() trajectory.Source { return trajectory.Truncate(algo.CumulativeSearch(), 40) },
		"circle":    func() trajectory.Source { return algo.SearchCircle(1.5) },
		"empty":     func() trajectory.Source { return trajectory.FromSlice(nil) },
	}
}

func TestSearchBatchMatchesScalar(t *testing.T) {
	for name, mk := range searchPrograms() {
		var lanes batch.Lanes
		type scalarCase struct {
			target  geom.Vec
			r       float64
			horizon float64
		}
		var cases []scalarCase
		for _, d := range []float64{0.5, 1, 2.5} {
			for _, r := range []float64{0.25, 0.03} {
				for k := 0; k < 5; k++ {
					angle := 2*math.Pi*float64(k)/5 + 0.17
					cases = append(cases, scalarCase{geom.Polar(d, angle), r, 120})
				}
			}
		}
		// Degenerate/edge lanes: target at origin (immediate contact),
		// unreachable horizon, invalid radius and horizon.
		cases = append(cases,
			scalarCase{geom.V(0, 0), 0.1, 50},
			scalarCase{geom.V(30, 0), 0.1, 3},
			scalarCase{geom.V(1, 0), -1, 50},
			scalarCase{geom.V(1, 0), 0.1, 0},
		)
		for _, c := range cases {
			lanes.AddSearch(c.target, c.r, c.horizon)
		}
		got, gotErrs := SearchBatch(mk(), &lanes, Options{})
		for li, c := range cases {
			want, wantErr := Search(mk(), c.target, c.r, Options{Horizon: c.horizon})
			if (gotErrs[li] == nil) != (wantErr == nil) {
				t.Fatalf("%s lane %d: err %v, want %v", name, li, gotErrs[li], wantErr)
			}
			if wantErr != nil {
				if gotErrs[li].Error() != wantErr.Error() {
					t.Fatalf("%s lane %d: err %q, want %q", name, li, gotErrs[li], wantErr)
				}
				continue
			}
			requireBitIdentical(t, name, got[li], want)
		}
	}
}

func TestRendezvousBatchMatchesScalar(t *testing.T) {
	programs := map[string]func() trajectory.Source{
		"alg4": algo.CumulativeSearch,
		"alg7": func() trajectory.Source { return trajectory.Truncate(algo.Universal(), 60) },
	}
	for name, mk := range programs {
		var lanes batch.Lanes
		var ins []Instance
		var horizons []float64
		for _, v := range []float64{0.25, 1, 2} {
			for _, phi := range []float64{0, 1.1, 4.0} {
				for _, chi := range []frame.Chirality{frame.CCW, frame.CW} {
					in := Instance{
						Attrs: frame.Attributes{V: v, Tau: 1.5, Phi: phi, Chi: chi},
						D:     geom.Polar(1.2, phi*0.7+0.3),
						R:     0.25,
					}
					ins = append(ins, in)
					horizons = append(horizons, 200)
				}
			}
		}
		// Invalid instance (zero displacement) and bad horizon.
		ins = append(ins,
			Instance{Attrs: frame.Attributes{V: 1, Tau: 1, Chi: frame.CCW}, D: geom.Vec{}, R: 0.25},
			Instance{Attrs: frame.Attributes{V: 1, Tau: 1, Chi: frame.CCW}, D: geom.V(1, 0), R: 0.25},
		)
		horizons = append(horizons, 100, 0)
		for i, in := range ins {
			lanes.AddRendezvous(in.Attrs, in.D, in.R, horizons[i])
		}
		got, gotErrs := RendezvousBatch(mk(), &lanes, Options{})
		for li, in := range ins {
			want, wantErr := Rendezvous(mk(), in, Options{Horizon: horizons[li]})
			if (gotErrs[li] == nil) != (wantErr == nil) {
				t.Fatalf("%s lane %d: err %v, want %v", name, li, gotErrs[li], wantErr)
			}
			if wantErr != nil {
				if gotErrs[li].Error() != wantErr.Error() {
					t.Fatalf("%s lane %d: err %q, want %q", name, li, gotErrs[li], wantErr)
				}
				continue
			}
			requireBitIdentical(t, name, got[li], want)
		}
	}
}

func TestSearchBatchBadOptions(t *testing.T) {
	var lanes batch.Lanes
	lanes.AddSearch(geom.V(1, 0), 0.25, -1)
	_, errs := SearchBatch(algo.CumulativeSearch(), &lanes, Options{})
	if !errors.Is(errs[0], ErrBadOptions) {
		t.Fatalf("got %v, want ErrBadOptions", errs[0])
	}
}

// TestBatchAllocGate pins the batch walks' allocation behaviour: the number
// of heap allocations per SearchBatch call must not grow with the lane
// count — the per-segment lane sweep is allocation-free, and only the O(1)
// result/teardown slices (plus the shared rendezvous tape) allocate.
func TestBatchAllocGate(t *testing.T) {
	mkLanes := func(n int) *batch.Lanes {
		var ln batch.Lanes
		for k := 0; k < n; k++ {
			ln.AddSearch(geom.Polar(2, 2*math.Pi*float64(k)/float64(n)+0.1), 0.0625, 1e6)
		}
		return &ln
	}
	measure := func(n int) float64 {
		ln := mkLanes(n)
		SearchBatch(algo.CumulativeSearch(), ln, Options{}) // warm up
		return testing.AllocsPerRun(10, func() {
			SearchBatch(algo.CumulativeSearch(), ln, Options{})
		})
	}
	small, large := measure(4), measure(64)
	if large > small+2 {
		t.Fatalf("SearchBatch allocations grow with lanes: %v allocs at 4 lanes, %v at 64", small, large)
	}
	const ceiling = 24
	if small > ceiling || large > ceiling {
		t.Fatalf("SearchBatch allocates too much: %v/%v allocs (ceiling %d)", small, large, ceiling)
	}

	mkRvLanes := func(n int) *batch.Lanes {
		var ln batch.Lanes
		for k := 0; k < n; k++ {
			phi := 2 * math.Pi * float64(k) / float64(n)
			ln.AddRendezvous(frame.Attributes{V: 0.5, Tau: 1, Phi: phi, Chi: frame.CCW},
				geom.Polar(1, phi+0.2), 0.25, 400)
		}
		return &ln
	}
	measureRv := func(n int) float64 {
		ln := mkRvLanes(n)
		RendezvousBatch(algo.CumulativeSearch(), ln, Options{}) // warm up
		return testing.AllocsPerRun(5, func() {
			RendezvousBatch(algo.CumulativeSearch(), ln, Options{})
		})
	}
	// The rendezvous tape grows with the program, not the lane count; the
	// per-lane walk itself must not allocate.
	smallRv, largeRv := measureRv(2), measureRv(16)
	if largeRv > smallRv+smallRv/2+8 {
		t.Fatalf("RendezvousBatch allocations grow with lanes: %v allocs at 2 lanes, %v at 16", smallRv, largeRv)
	}
}

// FuzzBatchMatchesScalar is the differential fuzz target: any instance the
// fuzzer constructs must produce bit-identical results through the batch and
// scalar paths, for both search and rendezvous.
func FuzzBatchMatchesScalar(f *testing.F) {
	f.Add(2.0, 0.0625, 0.3, 0.5, 1.0, 1.2, true, uint8(0))
	f.Add(0.7, 0.25, 4.1, 2.0, 0.5, 0.9, false, uint8(1))
	f.Add(1.0, 0.01, 0.0, 0.25, 3.0, 2.0, true, uint8(2))
	f.Fuzz(func(t *testing.T, d, r, angle, v, tau, horizon float64, ccw bool, mode uint8) {
		// Clamp into the simulators' domain: the goal is differential
		// coverage of the walk, not input validation (tested elsewhere).
		clamp := func(x, lo, hi float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return lo
			}
			return math.Min(hi, math.Max(lo, math.Abs(x)))
		}
		d = clamp(d, 0.1, 4)
		r = clamp(r, 0.01, 1)
		v = clamp(v, 0.25, 4)
		tau = clamp(tau, 0.25, 4)
		horizon = clamp(horizon, 0.5, 300)
		if math.IsNaN(angle) || math.IsInf(angle, 0) {
			angle = 0
		}
		chi := frame.CCW
		if !ccw {
			chi = frame.CW
		}
		target := geom.Polar(d, angle)

		var mk func() trajectory.Source
		switch mode % 3 {
		case 0:
			mk = algo.CumulativeSearch
		case 1:
			// Finite program: covers the exhaustion paths.
			mk = func() trajectory.Source { return trajectory.Truncate(algo.CumulativeSearch(), horizon/2+1) }
		default:
			mk = algo.Universal
		}

		var sl batch.Lanes
		sl.AddSearch(target, r, horizon)
		gotS, errS := SearchBatch(mk(), &sl, Options{})
		wantS, wantErrS := Search(mk(), target, r, Options{Horizon: horizon})
		if (errS[0] == nil) != (wantErrS == nil) {
			t.Fatalf("search err: batch %v, scalar %v", errS[0], wantErrS)
		}
		if wantErrS == nil {
			requireBitIdentical(t, "search", gotS[0], wantS)
		}

		in := Instance{Attrs: frame.Attributes{V: v, Tau: tau, Phi: angle, Chi: chi}, D: target, R: r}
		var rl batch.Lanes
		rl.AddRendezvous(in.Attrs, in.D, in.R, horizon)
		gotR, errR := RendezvousBatch(mk(), &rl, Options{})
		wantR, wantErrR := Rendezvous(mk(), in, Options{Horizon: horizon})
		if (errR[0] == nil) != (wantErrR == nil) {
			t.Fatalf("rendezvous err: batch %v, scalar %v", errR[0], wantErrR)
		}
		if wantErrR == nil {
			requireBitIdentical(t, "rendezvous", gotR[0], wantR)
		}

		// The same instance among turned variants, split at a fuzzed lane
		// into two chunks walked by two goroutines on one shared tape.
		lanes := make([]tapeLane, 4)
		for k := range lanes {
			lin := in
			lin.Attrs.Phi += 0.9 * float64(k)
			lin.D = geom.Polar(d, angle+1.3*float64(k))
			lanes[k] = tapeLane{lin, horizon}
		}
		split := int(mode/3) % (len(lanes) + 1)
		tp := NewTape(mk())
		got, errs := walkChunks(tp, lanes, []int{split}, func(int) Options { return Options{} })
		requireLanesMatch(t, "shared tape", mk, lanes, got, errs, func(int) context.Context { return nil })
	})
}
