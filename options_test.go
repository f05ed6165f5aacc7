package rendezvous

import (
	"errors"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/frame"
	"repro/internal/gather"
	"repro/internal/geom"
	"repro/internal/line"
	"repro/internal/sim"
)

// TestNaNHorizonAndRadiusRejected: every walk entry point rejects a NaN
// horizon and a NaN radius up front. A NaN horizon makes the horizon test
// t >= horizon false forever, so a walk over an infinite program that let
// it through would never return.
func TestNaNHorizonAndRadiusRejected(t *testing.T) {
	nan := math.NaN()
	prog := algo.CumulativeSearch()
	in := sim.Instance{Attrs: frame.Attributes{V: 1, Tau: 1, Phi: 0, Chi: frame.CCW}, D: geom.V(2, 0), R: 0.1}
	ref := frame.Reference().Frame(geom.Zero)
	fb := in.Attrs.Frame(in.D)
	robots := []gather.Robot{{Attrs: frame.Reference()}, {Attrs: in.Attrs, Origin: in.D}}
	lanes := func(horizon, r float64) *batch.Lanes {
		var ln batch.Lanes
		ln.AddRendezvous(in.Attrs, in.D, r, horizon)
		return &ln
	}
	searchLanes := func(horizon, r float64) *batch.Lanes {
		var ln batch.Lanes
		ln.AddSearch(in.D, r, horizon)
		return &ln
	}
	laneErr := func(_ []sim.Result, errs []error) error { return errs[0] }
	for _, tc := range []struct {
		name       string
		horizon, r float64
	}{
		{"NaN horizon", nan, 0.1},
		{"NaN radius", 1e3, nan},
	} {
		withR := in
		withR.R = tc.r
		opt := sim.Options{Horizon: tc.horizon}
		calls := map[string]func() error{
			"sim.Search": func() error { _, err := sim.Search(prog, in.D, tc.r, opt); return err },
			"sim.FirstMeetingFramed": func() error {
				_, err := sim.FirstMeetingFramed(prog, ref, prog, fb, tc.r, opt)
				return err
			},
			"sim.Rendezvous":           func() error { _, err := sim.Rendezvous(prog, withR, opt); return err },
			"sim.RendezvousAsymmetric": func() error { _, err := sim.RendezvousAsymmetric(prog, prog, withR, opt); return err },
			"sim.SearchBatch":          func() error { return laneErr(sim.SearchBatch(prog, searchLanes(tc.horizon, tc.r), sim.Options{})) },
			"sim.RendezvousBatch":      func() error { return laneErr(sim.RendezvousBatch(prog, lanes(tc.horizon, tc.r), sim.Options{})) },
			"sim.Tape.Rendezvous": func() error {
				tp := sim.NewTape(prog)
				return laneErr(tp.Rendezvous(lanes(tc.horizon, tc.r), sim.Options{}))
			},
			"gather.Simulate": func() error {
				_, err := gather.Simulate(prog, gather.Instance{Robots: robots, R: tc.r}, opt)
				return err
			},
			"line.Rendezvous": func() error {
				_, err := line.Rendezvous(line.Universal(), line.Instance{Attrs: line.Attributes{V: 1, Tau: 1, Dir: 1}, D: 2, R: tc.r}, opt)
				return err
			},
			"line.Search": func() error { _, err := line.Search(line.ZigZag(), 2, tc.r, opt); return err },
			"Search":      func() error { _, err := Search(CumulativeSearch(), in.D, tc.r, opt); return err },
			"Rendezvous":  func() error { _, err := Rendezvous(Universal(), withR, opt); return err },
			"RendezvousAuto": func() error {
				_, err := RendezvousAuto(Universal(), withR, tc.horizon, 1e3)
				return err
			},
		}
		for name, call := range calls {
			err := call()
			if err == nil {
				t.Errorf("%s: %s accepted", tc.name, name)
				continue
			}
			if tc.name == "NaN horizon" && !errors.Is(err, sim.ErrBadOptions) {
				t.Errorf("%s: %s: err = %v, want ErrBadOptions", tc.name, name, err)
			}
		}
	}
}
