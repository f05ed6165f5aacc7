package rendezvous

// The benchmark harness regenerates every experiment table (see
// experiments.All for the index): one benchmark per table E1-E9 plus the ablations
// A1-A3, and micro-benchmarks of the simulation engine. Run with
//
//	go test -bench=. -benchmem
//
// An experiment benchmark failing (b.Fatal) means a paper claim did not
// reproduce.

import (
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/sampler"
	"repro/internal/segment"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trajectory"
)

// benchExperiment runs one experiment table per iteration.
func benchExperiment(b *testing.B, run func(experiments.Config) (experiments.Table, error)) {
	b.Helper()
	var rows int
	for b.Loop() {
		table, err := run(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(table.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE1SearchScaling(b *testing.B) { benchExperiment(b, experiments.E1SearchScalingCfg) }
func BenchmarkE2Durations(b *testing.B)     { benchExperiment(b, experiments.E2DurationsCfg) }
func BenchmarkE3SameChirality(b *testing.B) { benchExperiment(b, experiments.E3SameChiralityCfg) }
func BenchmarkE4OppositeChirality(b *testing.B) {
	benchExperiment(b, experiments.E4OppositeChiralityCfg)
}

func BenchmarkE5PhaseSchedule(b *testing.B) {
	benchExperiment(b, func(cfg experiments.Config) (experiments.Table, error) {
		// The benchmark covers 8 of the table's 12 rounds, as it always has,
		// so its history stays comparable; all 12 take about 100 ms serial
		// (E5 in RunAllCfg).
		return experiments.E5PhaseScheduleCfg(8, cfg)
	})
}

func BenchmarkE6Overlap(b *testing.B)         { benchExperiment(b, experiments.E6OverlapCfg) }
func BenchmarkE7UniversalRounds(b *testing.B) { benchExperiment(b, experiments.E7UniversalRoundsCfg) }
func BenchmarkE8Feasibility(b *testing.B)     { benchExperiment(b, experiments.E8FeasibilityCfg) }
func BenchmarkE9Baselines(b *testing.B)       { benchExperiment(b, experiments.E9BaselinesCfg) }
func BenchmarkE10Gathering(b *testing.B)      { benchExperiment(b, experiments.E10GatheringCfg) }
func BenchmarkE11LineVsPlane(b *testing.B)    { benchExperiment(b, experiments.E11LineVsPlaneCfg) }
func BenchmarkE12Coverage(b *testing.B)       { benchExperiment(b, experiments.E12CoverageCfg) }
func BenchmarkE13Competitive(b *testing.B)    { benchExperiment(b, experiments.E13CompetitiveRatioCfg) }
func BenchmarkE14FaultInjection(b *testing.B) { benchExperiment(b, experiments.E14FaultInjectionCfg) }
func BenchmarkE15PriceOfSymmetry(b *testing.B) {
	benchExperiment(b, experiments.E15PriceOfSymmetryCfg)
}
func BenchmarkE16VariableSpeed(b *testing.B) { benchExperiment(b, experiments.E16VariableSpeedCfg) }

func BenchmarkAblationFixedStep(b *testing.B) { benchExperiment(b, experiments.A1FixedStepDetectorCfg) }
func BenchmarkAblationNoWait(b *testing.B)    { benchExperiment(b, experiments.A2NoFinalWaitCfg) }
func BenchmarkAblationNoRev(b *testing.B)     { benchExperiment(b, experiments.A3NoReversePassCfg) }

// --- sweep engine benchmarks -------------------------------------------

// benchSweep runs a 24-instance rendezvous sweep (the E3/E4 workload shape:
// one full simulated rendezvous per cell) at the given worker count. On a
// multi-core runner BenchmarkSweepWorkersMax should beat
// BenchmarkSweepWorkers1 by ≥2× wall clock; the outputs are bit-identical
// either way (see internal/sweep and TestParallelSweepDeterminism).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	vs := []float64{0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
	phis := []float64{math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi}
	n := len(vs) * len(phis)
	for b.Loop() {
		_, err := sweep.RunSampled(n, func(i int, _ sampler.Draws) (float64, error) {
			in := Instance{
				Attrs: Attributes{V: vs[i/len(phis)], Tau: 1, Phi: phis[i%len(phis)], Chi: CCW},
				D:     XY(1, 0),
				R:     0.25,
			}
			res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e5})
			if err != nil {
				return 0, err
			}
			return res.Time, nil
		}, sweep.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "instances/op")
}

func BenchmarkSweepWorkers1(b *testing.B) { benchSweep(b, 1) }

func BenchmarkSweepWorkersMax(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Log("GOMAXPROCS=1: expect parity with BenchmarkSweepWorkers1, not speedup")
	}
	benchSweep(b, 0)
}

// BenchmarkE1Serial / BenchmarkE1Parallel expose the same comparison at the
// experiment level: E1 fans 64 independent searches through the pool.
func BenchmarkE1Serial(b *testing.B) {
	benchExperiment(b, func(cfg experiments.Config) (experiments.Table, error) {
		cfg.Workers = 1
		return experiments.E1SearchScalingCfg(cfg)
	})
}

func BenchmarkE1Parallel(b *testing.B) {
	benchExperiment(b, func(cfg experiments.Config) (experiments.Table, error) {
		cfg.Workers = 0
		return experiments.E1SearchScalingCfg(cfg)
	})
}

// --- result-cache benchmarks -------------------------------------------

// cachedSuite is the subset of the experiment suite whose simulation work
// is cache-backed: re-running it over an identical grid with a warm cache
// must be ≥5× faster than the cold run (the PR's acceptance gate; see
// BENCH_sim.json for recorded numbers).
var cachedSuite = []string{"E1", "E3", "E4", "E7", "E8", "E9", "E13", "E15"}

func runCachedSuite(b *testing.B, c *cache.Cache) {
	b.Helper()
	cfg := experiments.Config{Workers: 1, Cache: c}
	for _, id := range cachedSuite {
		if err := experiments.RunOneCfg(id, io.Discard, false, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllCold measures the cache-backed experiment suite with a
// cold cache every iteration: all simulation work executes.
func BenchmarkRunAllCold(b *testing.B) {
	for b.Loop() {
		runCachedSuite(b, cache.New(0))
	}
}

// BenchmarkRunAllCached measures the same suite re-run over the identical
// grid with a warm shared cache: every simulation is a hit, leaving only
// table assembly.
func BenchmarkRunAllCached(b *testing.B) {
	c := cache.New(0)
	runCachedSuite(b, c) // prime
	b.ResetTimer()
	for b.Loop() {
		runCachedSuite(b, c)
	}
}

// --- engine micro-benchmarks -------------------------------------------

// BenchmarkRendezvousHot is the allocation gate of the simulator hot path:
// one full simulated rendezvous (Theorem 2 fast path). The value-typed
// segment core (segment.Seg + trajectory.Cursor + motion.Mover) runs it in
// single-digit allocs/op (pre-refactor: 121, pre-PR-2: 157); the in-code
// ceiling lives in TestRendezvousHotAllocGate.
func BenchmarkRendezvousHot(b *testing.B) {
	in := Instance{
		Attrs: Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e4})
		if err != nil || !res.Met {
			b.Fatalf("met=%v err=%v", res.Met, err)
		}
	}
}

// BenchmarkSearchHot is the companion allocation gate for the search path,
// which drives the program generator with a plain callback and no cursor at
// all (pre-refactor: 62 allocs/op, pre-PR-2: 103); the in-code ceiling
// lives in TestSearchHotAllocGate.
func BenchmarkSearchHot(b *testing.B) {
	target := Polar(2, 0.9)
	b.ReportAllocs()
	for b.Loop() {
		res, err := Search(CumulativeSearch(), target, 0.01, Options{Horizon: 1e6})
		if err != nil || !res.Met {
			b.Fatalf("met=%v err=%v", res.Met, err)
		}
	}
}

// BenchmarkRendezvousDifferentSpeeds measures one full simulated rendezvous
// (the Theorem 2 fast path: mostly closed-form contact tests).
func BenchmarkRendezvousDifferentSpeeds(b *testing.B) {
	in := Instance{
		Attrs: Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	for b.Loop() {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e4})
		if err != nil || !res.Met {
			b.Fatalf("met=%v err=%v", res.Met, err)
		}
	}
}

// BenchmarkRendezvousUniversal measures one simulated rendezvous under
// Algorithm 7 with asymmetric clocks (the Section 4 machinery).
func BenchmarkRendezvousUniversal(b *testing.B) {
	in := Instance{
		Attrs: Attributes{V: 1, Tau: 0.5, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	for b.Loop() {
		res, err := Rendezvous(Universal(), in, Options{Horizon: 1e5})
		if err != nil || !res.Met {
			b.Fatalf("met=%v err=%v", res.Met, err)
		}
	}
}

// BenchmarkRendezvousLongWalk measures one long scalar rendezvous: v = 0.8,
// d = 2, r = 0.05 under Algorithm 4, which meets after 2,074 intervals. Its
// B/op does not grow with the walk's length (see
// sim.TestRendezvousLongWalkAllocGate).
func BenchmarkRendezvousLongWalk(b *testing.B) {
	in := Instance{
		Attrs: Attributes{V: 0.8, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(2, 0),
		R:     0.05,
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e6})
		if err != nil || !res.Met || res.Intervals != 2074 {
			b.Fatalf("met=%v intervals=%d err=%v", res.Met, res.Intervals, err)
		}
	}
}

// BenchmarkRendezvousTwin measures the E14/E16 control: two identical
// robots (v = 1, τ = 1, φ = 0, χ = +1), d = (1, 0), r = 0.25, which never
// meet (Theorem 4) and walk 404,220 intervals to the horizon 5e4. It runs
// the twin walk: one program pulled, no placement, no contact test (see
// sim.FirstMeetingShared).
func BenchmarkRendezvousTwin(b *testing.B) {
	in := Instance{
		Attrs: Attributes{V: 1, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 5e4})
		if err != nil || res.Met || res.Intervals != 404220 {
			b.Fatalf("met=%v intervals=%d err=%v", res.Met, res.Intervals, err)
		}
	}
}

// BenchmarkSearchDeepRound measures a search that must reach round 4 of
// Algorithm 4 (hundreds of thousands of segments).
func BenchmarkSearchDeepRound(b *testing.B) {
	target := Polar(2, 0.9)
	for b.Loop() {
		res, err := Search(CumulativeSearch(), target, 0.01, Options{Horizon: 1e6})
		if err != nil || !res.Met {
			b.Fatalf("met=%v err=%v", res.Met, err)
		}
	}
}

// contactMover returns the production Mover of seg placed at time 0.
func contactMover(seg segment.Seg) *motion.Mover {
	var m motion.Mover
	m.Set(&seg, 0, seg.Duration())
	return &m
}

// BenchmarkFirstContactLinear measures motion.Contact's closed-form
// linear-linear case.
func BenchmarkFirstContactLinear(b *testing.B) {
	a := contactMover(segment.NewLine(geom.V(0, 0), geom.V(100, 0), 1).Seg())
	c := contactMover(segment.NewLine(geom.V(10, 0.25), geom.V(-90, 0.25), 1).Seg())
	opt := motion.DefaultOptions(0.5)
	for b.Loop() {
		if _, found, err := motion.Contact(a, c, 0.5, 0, 100, opt); !found || err != nil {
			b.Fatal("no contact")
		}
	}
}

// BenchmarkFirstContactArcStatic measures motion.Contact's closed-form
// circular-static case (the hot path of every SearchCircle pass).
func BenchmarkFirstContactArcStatic(b *testing.B) {
	c := contactMover(segment.NewArc(geom.Zero, 1, 0, 10, 1).Seg())
	var p motion.Mover
	p.SetStatic(geom.V(0, 1.8))
	opt := motion.DefaultOptions(1)
	for b.Loop() {
		if _, found, err := motion.Contact(c, &p, 1, 0, 10, opt); !found || err != nil {
			b.Fatal("no contact")
		}
	}
}

// BenchmarkFirstContactConservative measures the safe-advance fallback,
// motion.SafeAdvance, on an arc-arc encounter with unequal ω.
func BenchmarkFirstContactConservative(b *testing.B) {
	x := contactMover(segment.NewArc(geom.V(-2, 0), 1, math.Pi, 60, 1).Seg())
	y := contactMover(segment.NewArc(geom.V(2, 0), 1, 0, 102, 1.7).Seg())
	opt := motion.Options{Slack: 1e-9, MaxIters: 10_000_000}
	for b.Loop() {
		if _, found, err := motion.SafeAdvance(x, y, 2.1, 0, 60, opt); !found || err != nil {
			b.Fatal("no contact")
		}
	}
}

// BenchmarkSetFramedArc measures placement, the per-segment cost of every
// framed walk: one motion.Mover.SetFramed of a raw arc under a robot's
// similarity frame with v, τ ≠ 1, φ ≠ 0 and χ = −1, its duration placed by
// segment.Frame.Duration as the walks place it.
func BenchmarkSetFramedArc(b *testing.B) {
	arc := segment.NewArc(geom.V(0.5, 0), 1, 0.3, 2.5, 1).Seg()
	fr := frame.Attributes{V: 0.7, Tau: 1.3, Phi: 0.9, Chi: frame.CW}.Frame(geom.V(1, -2))
	raw, _ := arc.DurationAndLength()
	var m motion.Mover
	for b.Loop() {
		m.SetFramed(&arc, &fr, 0, fr.Duration(&arc, raw))
	}
}

// BenchmarkTrajectoryGeneration measures pure segment-stream throughput for
// the paper's Algorithm 4 (no simulation), pulled the way the walks pull
// it: trajectory.Cursor.Pull, each segment read in the generator's storage
// with its duration and length.
func BenchmarkTrajectoryGeneration(b *testing.B) {
	for b.Loop() {
		cur := trajectory.NewCursor(algo.CumulativeSearch())
		for range 100_000 {
			if _, _, _, ok := cur.Pull(); !ok {
				b.Fatal("Algorithm 4 ended")
			}
		}
		cur.Close()
	}
	b.ReportMetric(100_000, "segments/op")
}

// --- batched SoA kernel benchmarks -------------------------------------

// gridBenchLanes is the shared workload of the batch-vs-scalar pair below:
// one E1-class grid row of 64 target directions at d=2, r=1/16, each a full
// search of the cumulative program. Both benchmarks process all 64 instances
// per iteration, so their ns/op ratio is the per-instance speedup the batch
// kernel's amortized segment generation buys.
const gridBenchLanes = 64

func gridBenchWorkload() (targets []Vec, r, horizon float64) {
	d, r := 2.0, 0.0625
	horizon = 2*SearchTimeBound(d, r) + 1000
	targets = make([]Vec, gridBenchLanes)
	for k := range targets {
		targets[k] = Polar(d, 2*math.Pi*float64(k)/gridBenchLanes+0.1)
	}
	return targets, r, horizon
}

// BenchmarkGridScalar evaluates the row through the scalar per-job path: one
// Search call — and one regenerated trajectory stream — per instance.
func BenchmarkGridScalar(b *testing.B) {
	targets, r, horizon := gridBenchWorkload()
	b.ReportAllocs()
	for b.Loop() {
		for _, tgt := range targets {
			res, err := Search(CumulativeSearch(), tgt, r, Options{Horizon: horizon})
			if err != nil || !res.Met {
				b.Fatalf("met=%v err=%v", res.Met, err)
			}
		}
	}
	b.ReportMetric(gridBenchLanes, "instances/op")
}

// BenchmarkGridBatch evaluates the same row through sim.SearchBatch: one
// shared trajectory stream, per-lane work reduced to closed-form contacts.
func BenchmarkGridBatch(b *testing.B) {
	targets, r, horizon := gridBenchWorkload()
	var lanes batch.Lanes
	for _, tgt := range targets {
		lanes.AddSearch(tgt, r, horizon)
	}
	b.ReportAllocs()
	for b.Loop() {
		results, errs := sim.SearchBatch(algo.CumulativeSearch(), &lanes, sim.Options{})
		for i := range results {
			if errs[i] != nil || !results[i].Met {
				b.Fatalf("lane %d: met=%v err=%v", i, results[i].Met, errs[i])
			}
		}
	}
	b.ReportMetric(gridBenchLanes, "instances/op")
}

// benchSweepGrid runs one seeded Monte-Carlo -grid sweep per iteration,
// serially and uncached, on the batched path or the scalar reference:
// benchExperiment's Config{} times only the scalar path, while the CLIs,
// cmd/rvserved and perfbench run the batched one.
func benchSweepGrid(b *testing.B, batched bool) {
	specs := []string{"v=0.25:0.75:0.25", "d=1:3:1"}
	cfg := experiments.Config{Workers: 1, Seed: 1, Samples: 8, Batch: batched}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := experiments.SweepGrid(specs, "search", cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(9*8, "instances/op")
}

func BenchmarkSweepGridBatch(b *testing.B)  { benchSweepGrid(b, true) }
func BenchmarkSweepGridScalar(b *testing.B) { benchSweepGrid(b, false) }
