// Command rvsim simulates one rendezvous instance: the reference robot R at
// the origin and a second robot R′ with the given hidden attributes, both
// executing the same algorithm.
//
// Usage:
//
//	rvsim [flags]
//
//	-v float      speed of R′ (default 0.5)
//	-tau float    clock unit of R′ (default 1)
//	-phi float    orientation of R′ in radians (default 0)
//	-chi int      chirality of R′: +1 or -1 (default +1)
//	-dx, -dy      initial displacement from R to R′ (default 1, 0)
//	-r float      visibility radius (default 0.25)
//	-algo string  algorithm: "universal" (Alg. 7) or "search" (Alg. 4; also "")
//	-horizon float  give-up time (default: 4× the paper's bound, or 1e6)
//
// With -samples K (K > 1) the single instance becomes a Monte-Carlo sweep:
// K instances with the orientation φ and the displacement direction drawn
// uniformly at random (per-instance seeds derived from (-seed, index)),
// reporting the meeting fraction and summary statistics of the meeting
// times. The sweep is experiments.MonteCarlo, the rendezvous sweep behind
// cmd/experiments' -grid, over -workers goroutines; it is bit-identical for
// a fixed -seed regardless of -workers.
//
//	-samples int  Monte-Carlo instances (default 1 = the single instance)
//	-seed int     base seed for the Monte-Carlo sweep (default 0)
//	-sampler NAME draw source for the sweep: "pseudo" (default,
//	              bit-identical to previous releases), "stratified",
//	              "halton", or "sobol" — the low-discrepancy kinds spread
//	              the sampled (φ, direction) pairs evenly and tighten the
//	              meeting-fraction estimate at the same -samples
//	-workers int  sweep worker-pool size: 0 = one per CPU, 1 = serial
//
// With -cache the simulation results are memoized in memory (see
// internal/cache); -cachefile F additionally persists them to the
// JSON-lines file F, so re-running the same sweep — any -workers value —
// is served from disk instead of re-simulated. Output is identical with
// caching on or off.
//
//	-cache          memoize simulation results in memory
//	-cachefile F    persist the result cache to F (implies -cache)
//
// Exit status 0 when the robots meet (all sampled instances in sweep mode),
// 1 on error, 2 when the horizon is reached without a meeting (any sampled
// instance in sweep mode).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/plot"
	"repro/internal/sampler"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/trajectory"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		v         = flag.Float64("v", 0.5, "speed of R′")
		tau       = flag.Float64("tau", 1, "clock unit of R′")
		phi       = flag.Float64("phi", 0, "orientation of R′ (radians)")
		chi       = flag.Int("chi", 1, "chirality of R′ (+1 or -1)")
		dx        = flag.Float64("dx", 1, "initial displacement x")
		dy        = flag.Float64("dy", 0, "initial displacement y")
		r         = flag.Float64("r", 0.25, "visibility radius")
		algoArg   = flag.String("algo", "universal", `algorithm: "universal" or "search"`)
		horizon   = flag.Float64("horizon", 0, "give-up time (0 = auto)")
		traceOut  = flag.String("trace", "", "write a CSV trace of both robots to this file")
		traceStep = flag.Float64("tracestep", 0.1, "sampling step for -trace")
		plotOut   = flag.Bool("plot", false, "print ASCII track and gap charts")
		samples   = flag.Int("samples", 1, "Monte-Carlo instances with random φ and displacement direction (1 = single instance)")
		seed      = flag.Int64("seed", 0, "base seed for the Monte-Carlo sweep")
		samplerNm = flag.String("sampler", "", `Monte-Carlo draw source: pseudo (default), stratified, halton, or sobol`)
		workers   = flag.Int("workers", 0, "sweep workers: 0 = one per CPU, 1 = serial (same output either way)")
		useCache  = flag.Bool("cache", false, "memoize simulation results in memory")
		cacheFile = flag.String("cachefile", "", "persist the result cache to this JSON-lines file (implies -cache)")
	)
	flag.Parse()

	samplerKind, err := sampler.ParseKind(*samplerNm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		return 1
	}

	var memo *cache.Cache // nil (no caching) unless requested
	if *cacheFile != "" {
		var err error
		if memo, err = cache.Open(*cacheFile, 0); err != nil {
			fmt.Fprintln(os.Stderr, "rvsim:", err)
			return 1
		}
	} else if *useCache {
		memo = cache.New(0)
	}
	defer func() {
		// A failed persist must not exit 0: the "warm" re-run the user
		// asked for would silently re-simulate everything.
		if err := memo.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "rvsim:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	in := rendezvous.Instance{
		Attrs: rendezvous.Attributes{V: *v, Tau: *tau, Phi: *phi, Chi: rendezvous.Chirality(*chi)},
		D:     rendezvous.XY(*dx, *dy),
		R:     *r,
	}
	if err := in.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		return 1
	}

	programID, mkProgram, err := experiments.GridAlgorithm(*algoArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		return 1
	}

	if *samples > 1 {
		if *traceOut != "" || *plotOut {
			fmt.Fprintln(os.Stderr, "rvsim: -trace/-plot apply to single instances only; ignored with -samples > 1")
		}
		cfg := experiments.Config{Workers: *workers, Seed: *seed, Samples: *samples, Sampler: samplerKind, Cache: memo, Batch: true}
		return runMonteCarlo(in, *algoArg, *horizon, cfg)
	}
	program := mkProgram()

	verdict := rendezvous.Classify(in.Attrs)
	bound := rendezvous.RendezvousTimeBound(in)
	fmt.Printf("instance: attrs=%v d=%v r=%g\n", in.Attrs, in.D, in.R)
	fmt.Printf("theorem 4: %v\n", verdict)
	if math.IsInf(bound, 1) {
		fmt.Println("paper bound: +Inf (infeasible)")
	} else {
		fmt.Printf("paper bound: %.6g\n", bound)
	}

	h := *horizon
	if h <= 0 {
		h = experiments.RendezvousHorizon(in)
	}
	res, err := memo.Rendezvous(programID, mkProgram, in, rendezvous.Options{Horizon: h})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		return 1
	}
	fmt.Printf("simulation (horizon %.4g): %v\n", h, res)

	if *traceOut != "" || *plotOut {
		until := h
		if res.Met {
			until = res.Time * 1.05 // a little past the meeting
		}
		tr, err := recordTrace(program, in, until, *traceStep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rvsim:", err)
			return 1
		}
		if *traceOut != "" {
			if err := writeTraceCSV(*traceOut, tr); err != nil {
				fmt.Fprintln(os.Stderr, "rvsim:", err)
				return 1
			}
			fmt.Printf("trace written to %s\n", *traceOut)
		}
		if *plotOut {
			if err := printCharts(tr, in.R); err != nil {
				fmt.Fprintln(os.Stderr, "rvsim:", err)
				return 1
			}
		}
	}
	if !res.Met {
		if verdict.Feasible {
			fmt.Println("note: instance is feasible; increase -horizon to find the meeting")
		}
		return 2
	}
	if !math.IsInf(bound, 1) && res.Time <= bound {
		fmt.Printf("within paper bound: yes (%.2f%% of bound)\n", 100*res.Time/bound)
	}
	return 0
}

// runMonteCarlo runs the Monte-Carlo sweep (experiments.MonteCarlo) and
// prints the meeting fraction and summary statistics of the meeting times.
func runMonteCarlo(base rendezvous.Instance, algoName string, horizon float64, cfg experiments.Config) int {
	results, err := experiments.MonteCarlo(base, algoName, horizon, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		return 1
	}
	times := make([]float64, 0, len(results))
	for _, t := range results {
		if !math.IsInf(t, 1) {
			times = append(times, t)
		}
	}
	fmt.Printf("monte carlo: base attrs=%v |d|=%g r=%g, %d samples, seed %d\n",
		base.Attrs, base.D.Norm(), base.R, cfg.Samples, cfg.Seed)
	if cfg.Sampler != sampler.Pseudo {
		fmt.Printf("sampler: %s\n", cfg.Sampler)
	}
	fmt.Printf("met: %d/%d\n", len(times), cfg.Samples)
	if len(times) > 0 {
		fmt.Println("meeting times:", analysis.Summarize(times))
	}
	if len(times) < cfg.Samples {
		return 2
	}
	return 0
}

// recordTrace samples both robots' global trajectories: the program under
// each robot's frame.
func recordTrace(program rendezvous.Trajectory, in rendezvous.Instance, until, step float64) (*trace.Trace, error) {
	sources := []trajectory.Source{program, program}
	frames := []segment.Frame{frame.Reference().Frame(geom.Zero), in.Attrs.Frame(in.D)}
	return trace.Record(sources, frames, []string{"R", "Rprime"}, until, step)
}

// writeTraceCSV writes a recorded trace to the given file.
func writeTraceCSV(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// printCharts renders the ASCII track and gap charts to stdout.
func printCharts(tr *trace.Trace, r float64) error {
	tracks, err := plot.Tracks(tr, 72, 24)
	if err != nil {
		return err
	}
	gap, err := plot.Gap(tr, 0, 1, 72, 12, r)
	if err != nil {
		return err
	}
	fmt.Println(tracks)
	fmt.Println(gap)
	return nil
}
