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
	return func(yield func(segment.Seg) bool) {
		i := 0
		for s := range src {
			f := factors[i%len(factors)]
			i++
			if !yield(s.Dilated(1 / f)) {
				return
			}
		}
	}
}
