package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// FuzzRendezvousMatchesComposed checks the scalar rendezvous walks, which
// apply each robot's frame at placement, against the composed path they
// replaced: FirstMeeting over the Transform-framed programs,
// FirstMeeting(Reference().Apply(pA, 0), Attrs.Apply(pB, D)). That oracle
// frames every segment with Frame.Apply and places it with Mover.Set, so it
// does not depend on Mover.SetFramed. Every Result field must agree bit for
// bit, and so must the error.
//
// mode picks the two programs (mode%3 for R, mode/3%3 for R′ in the
// asymmetric walk): Algorithm 4, Algorithm 7, or a finite prefix of
// Algorithm 4 with a zero-duration wait inside, which ends before the
// horizon so the walks reach the final-position branch.
func FuzzRendezvousMatchesComposed(f *testing.F) {
	f.Add(2.0, 0.25, 0.3, 0.5, 1.0, 1.2, 300.0, true, uint8(0))
	f.Add(3.0, 0.1, 0.0, 1.0, 0.5, 0.7, 1000.0, true, uint8(4))
	f.Add(1.0, 0.05, 2.0, 1.0, 1.5, 3.0, 500.0, false, uint8(2))
	f.Add(0.7, 0.25, 4.1, 2.0, 0.5, 0.0, 2000.0, false, uint8(7))
	f.Fuzz(func(t *testing.T, d, r, angle, v, tau, phi, horizon float64, ccw bool, mode uint8) {
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
		horizon = clamp(horizon, 20, 2e3)
		for _, p := range []*float64{&angle, &phi} {
			if math.IsNaN(*p) || math.IsInf(*p, 0) {
				*p = 0
			}
		}
		chi := frame.CCW
		if !ccw {
			chi = frame.CW
		}
		in := Instance{Attrs: frame.Attributes{V: v, Tau: tau, Phi: phi, Chi: chi}, D: geom.Polar(d, angle), R: r}

		// The finite program stops after horizon/8 local time plus one
		// whole segment, about 0.13–0.22 of the horizon for horizons of 20
		// or more, so even R′ at τ = 4 halts before the horizon.
		prefix := trajectory.Collect(trajectory.Truncate(algo.CumulativeSearch(), horizon/8))
		half := len(prefix) / 2
		finite := slices.Insert(prefix, half, segment.Wait{At: prefix[half].Start()}.Seg())
		programs := []func() trajectory.Source{
			algo.CumulativeSearch,
			algo.Universal,
			func() trajectory.Source { return trajectory.FromSlice(finite) },
		}
		mkA, mkB := programs[mode%3], programs[mode/3%3]
		opt := Options{Horizon: horizon}

		composed := func(a, b trajectory.Source) (Result, error) {
			return FirstMeeting(frame.Reference().Apply(a, geom.Zero), in.Attrs.Apply(b, in.D), in.R, opt)
		}
		check := func(label string, got Result, gotErr error, want Result, wantErr error) {
			t.Helper()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, composed path %v", label, gotErr, wantErr)
			}
			requireBitIdentical(t, label, got, want)
		}

		got, gotErr := Rendezvous(mkA(), in, opt)
		want, wantErr := composed(mkA(), mkA())
		check("Rendezvous", got, gotErr, want, wantErr)

		got, gotErr = RendezvousAsymmetric(mkA(), mkB(), in, opt)
		want, wantErr = composed(mkA(), mkB())
		check("RendezvousAsymmetric", got, gotErr, want, wantErr)
	})
}
