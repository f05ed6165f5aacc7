package trajectory

import (
	"fmt"

	"repro/internal/segment"
)

// ModulateSpeed rescales the robot's speed segment-by-segment: segment i is
// traversed at factors[i mod len(factors)] times its nominal speed (exact:
// the segment is wrapped with an inverse time dilation, so geometry is
// unchanged and durations divide by the factor).
//
// This models the "variable speed" robots named in the paper's future work
// (Section 5): the robot still executes the same geometric program, but its
// instantaneous speed fluctuates. All factors must be positive. The dilation
// folds into each Seg value (segment.Seg.Dilated), so modulation allocates
// nothing per segment. Durations are in src's own clock: under a robot's
// frame the dilation applies outside the frame's clock (see segment.Frame).
func ModulateSpeed(src Source, factors []float64) Source {
	if len(factors) == 0 {
		return src
	}
	for _, f := range factors {
		if f <= 0 {
			panic(fmt.Sprintf("trajectory: ModulateSpeed with non-positive factor %v", f))
		}
	}
	return New(func() Gen { return &modulateGen{in: src.Start(), factors: factors} })
}

// modulateGen is ModulateSpeed's generator. A dilation m multiplies the
// pulled duration exactly as Seg.Duration applies it.
type modulateGen struct {
	in      Gen // src's generator
	factors []float64
	i       int
	seg     segment.Seg
}

func (g *modulateGen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	if seg, dur, length, ok = g.in.Next(); !ok {
		return nil, 0, 0, false
	}
	m := 1 / g.factors[g.i%len(g.factors)]
	g.i++
	g.seg = seg.Dilated(m)
	return &g.seg, dur * m, length, true
}
