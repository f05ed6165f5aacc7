// Command searchsim simulates the search problem of Section 2: a single
// robot with unit speed looks for a static target at unknown distance.
//
// Usage:
//
//	searchsim [flags]
//
//	-d float      target distance (default 1)
//	-angle float  target direction in radians (default 0.7)
//	-r float      visibility radius (default 0.25)
//	-algo string  "adaptive" (Alg. 4), "known" (circles 2r apart),
//	              "pitch" (fixed pitch sweep), "rings" (doubling circles)
//	-pitch float  pitch for -algo=pitch (default 0.5)
//	-horizon float  give-up time (0 = auto from the Theorem 1 bound)
//
// Exit status 0 when the target is found, 1 on error, 2 on a miss.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/algo"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		d       = flag.Float64("d", 1, "target distance")
		angle   = flag.Float64("angle", 0.7, "target direction (radians)")
		r       = flag.Float64("r", 0.25, "visibility radius")
		algoArg = flag.String("algo", "adaptive", `algorithm: "adaptive", "known", "pitch", "rings"`)
		pitch   = flag.Float64("pitch", 0.5, "pitch for -algo=pitch")
		horizon = flag.Float64("horizon", 0, "give-up time (0 = auto)")
	)
	flag.Parse()

	if !(*d > 0) || !(*r > 0) {
		fmt.Fprintln(os.Stderr, "searchsim: -d and -r must be positive")
		return 1
	}
	var program rendezvous.Trajectory
	switch *algoArg {
	case "adaptive":
		program = rendezvous.CumulativeSearch()
	case "known":
		program = rendezvous.KnownVisibilitySearch(*r)
	case "pitch":
		program = algo.FixedPitchSweep(*pitch)
	case "rings":
		program = algo.ExpandingRings()
	default:
		fmt.Fprintf(os.Stderr, "searchsim: unknown algorithm %q\n", *algoArg)
		return 1
	}

	bound := rendezvous.SearchTimeBound(*d, *r)
	fmt.Printf("target: distance %g at angle %g; visibility %g; d²/r = %g\n",
		*d, *angle, *r, *d**d / *r)
	if bound > 0 {
		fmt.Printf("theorem 1 bound (adaptive): %.6g\n", bound)
	}

	h := *horizon
	if h <= 0 {
		h = 4*bound + 2000
	}
	res, err := rendezvous.Search(program, rendezvous.Polar(*d, *angle), *r,
		rendezvous.Options{Horizon: h})
	if err != nil {
		fmt.Fprintln(os.Stderr, "searchsim:", err)
		return 1
	}
	fmt.Printf("simulation (horizon %.4g): %v\n", h, res)
	if !res.Met {
		return 2
	}
	return 0
}
