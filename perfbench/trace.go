package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trajectory"
)

// The traced run is separate from the end-to-end runs. It runs each
// workload untraced and traced, alternating (see alternate), and replays the workloads'
// generated inputs through the layers' public functions with a span around
// every call, then reports:
//
//   - per-layer metrics: work counts and per-call times of each layer, read
//     from the spans and from the program's public hooks
//     (experiments.Config.Monitor and OnBatch, cache.Stats, rvserved's
//     /metrics and each response's elapsed_ms, runtime/metrics);
//   - the ladder of every workload: the sum of layer self-times against the
//     measured end-to-end wall, with the unexplained residual;
//   - the tracing overhead: mean traced wall − mean untraced wall.
//
// Every layer is measured on every traced run, whichever workload the run
// is for; the ladder, tracing overhead and Go runtime metrics it reports
// are those of the requested workload. The spans are written to
// .bench_build/trace-<workload>.json when the run ends.

// tspan is one recorded span: a call into a layer made by this benchmark.
type tspan struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"` // operation ID shared by the spans of one operation
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the causing span, -1 for a root
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []tspan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, tspan{Name: name, Op: op, Start: time.Since(t.t0), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = time.Since(t.t0)
	return t.spans[i].End - t.spans[i].Start
}

// selfSeconds sums the self-time (duration minus the children's) of every
// span with the given name.
func (t *tracer) selfSeconds(name string) float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total := time.Duration(0)
	for i, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start - child[i]
		}
	}
	return total.Seconds()
}

// adopt appends spans recorded by another process whose clock started at
// t0, shifting them onto this tracer's time base.
func (t *tracer) adopt(spans []tspan, t0 time.Time) {
	shift, base := t0.Sub(t.t0), len(t.spans)
	for _, s := range spans {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCycles, gcCPU, busyCPU, allocBytes, allocObjects float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: v(0), gcCPU: v(1), busyCPU: v(2) - v(3), allocBytes: v(4), allocObjects: v(5)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU, a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects}
}

// goRuntime is the Go runtime metrics of the process doing a workload's work.
type goRuntime struct{ gcCycles, gcCPUShare, allocMB, cpuS float64 }

func fromSample(d runtimeSample) goRuntime {
	return goRuntime{d.gcCycles, d.gcCPU / d.busyCPU, d.allocBytes / 1e6, d.busyCPU}
}

// ladder compares the layers' self-times with one workload's end-to-end
// wall. For the parallel workloads the base is workers × wall (the CPU the
// pool had), since the layer self-times are measured serially.
type ladder struct {
	workload string
	wall     float64 // untraced end-to-end wall, seconds
	traced   float64 // traced wall, seconds
	base     float64
	baseNote string
	layers   []layerTime
	rt       goRuntime
}

type layerTime struct {
	name string
	self float64
}

func (l *ladder) residual() float64 {
	s := 0.0
	for _, x := range l.layers {
		s += x.self
	}
	return l.base - s
}

func (l *ladder) print() {
	fmt.Printf("ladder %s: end-to-end wall %.4f s untraced, %.4f s traced (tracing overhead %+.1f%%)\n",
		l.workload, l.wall, l.traced, 100*(l.traced-l.wall)/l.wall)
	covered := 0.0
	for _, x := range l.layers {
		fmt.Printf("  %-34s self %10.4f s  %5.1f%% of base\n", x.name, x.self, 100*x.self/l.base)
		covered += x.self
	}
	fmt.Printf("  %-34s      %10.4f s\n", "sum of layer self-times", covered)
	fmt.Printf("  %-34s      %10.4f s  (%s)\n", "base", l.base, l.baseNote)
	fmt.Printf("  %-34s      %10.4f s  %5.1f%% of base\n", "unexplained residual", l.residual(), 100*l.residual()/l.base)
}

func traceRun(e *env, workload string) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	workers := float64(runtime.GOMAXPROCS(0))

	tl, err := traceTables(e, tr, out, workers)
	if err != nil {
		return nil, err
	}
	sl, meetings, err := traceSweep(e, tr, out, workers)
	if err != nil {
		return nil, err
	}
	vl, err := traceServe(e, tr, out)
	if err != nil {
		return nil, err
	}
	if err := traceTrajectory(tr, out, meetings); err != nil {
		return nil, err
	}

	var mine *ladder
	for _, l := range []*ladder{tl, sl, vl} {
		if l == nil {
			continue // its loads crashed; the failures are counted
		}
		l.print()
		if l.workload == workload {
			mine = l
		}
	}
	if mine == nil {
		out.fail("no ladder for %s: its measured runs crashed", workload)
		return out, tr.write(filepath.Join(e.bin, "trace-"+workload+".json"))
	}
	out.set("ladder.residual_share", "ratio", mine.residual()/mine.base)
	out.set("trace.overhead_share", "ratio", (mine.traced-mine.wall)/mine.wall)
	out.set("runtime.gc_cycles", "count", mine.rt.gcCycles)
	out.set("runtime.gc_cpu_share", "ratio", mine.rt.gcCPUShare)
	out.set("runtime.alloc_mb", "MB", mine.rt.allocMB)
	out.set("runtime.cpu_s", "s", mine.rt.cpuS)
	fmt.Printf("runtime (%s, process doing the work): %.0f GC cycles, GC %.1f%% of %.3f s CPU, %.1f MB allocated\n",
		workload, mine.rt.gcCycles, 100*mine.rt.gcCPUShare, mine.rt.cpuS, mine.rt.allocMB)
	return out, tr.write(filepath.Join(e.bin, "trace-"+workload+".json"))
}

// alternate measures the tracing overhead on one piece of work: it runs it
// untraced, traced, traced, untraced, so neither side always runs first or
// alone rides the machine's drift, and returns each side's mean wall.
// In-process callers run a discarded warm-up pass first, so that no
// measured pass pays the process's cold start (page faults, heap growth).
func alternate(untraced, traced func() (float64, error)) (u, t float64, err error) {
	for _, tracing := range []bool{false, true, true, false} {
		f := untraced
		if tracing {
			f = traced
		}
		wall, err := f()
		if err != nil {
			return 0, 0, err
		}
		if tracing {
			t += wall / 2
		} else {
			u += wall / 2
		}
	}
	return u, t, nil
}

// traceTables runs the suite untraced and traced (Monitor and OnBatch
// attached), then every experiments.All() runner alone and serially.
func traceTables(e *env, tr *tracer, out *outcome, workers float64) (*ladder, error) {
	l := &ladder{workload: "tables"}
	var untraced, traced bytes.Buffer
	plain := func() (float64, error) {
		untraced.Reset()
		start := time.Now()
		err := experiments.RunAllCfg(&untraced, false, tablesConfig(e.seed))
		return time.Since(start).Seconds(), err
	}
	var jobs []float64
	pass := func() (float64, error) {
		cfg := tablesConfig(e.seed)
		mon := &sweep.Monitor{}
		cfg.Monitor = mon
		traced.Reset()
		rt0 := readRuntime()
		root := tr.begin("tables.pass", 0, -1)
		err := experiments.RunAllCfg(&traced, false, cfg)
		wall := tr.end(root).Seconds()
		l.rt = fromSample(readRuntime().sub(rt0))
		jobs = mon.Durations()
		return wall, err
	}
	if _, err := plain(); err != nil { // warm-up, discarded
		return nil, err
	}
	var err error
	if l.wall, l.traced, err = alternate(plain, pass); err != nil {
		return nil, err
	}
	fmt.Printf("tables pool: %d jobs, p50 %.4f ms, max %.2f ms, busy %.1f%% of %g workers × wall\n",
		len(jobs), 1e3*median(jobs), 1e3*analysis.Quantile(jobs, 1), 100*sum(jobs)/(workers*l.traced), workers)

	var serial bytes.Buffer
	slowest := 0.0
	for i, r := range experiments.All() {
		cfg := tablesConfig(e.seed)
		cfg.Workers = 1
		rt0 := readRuntime()
		s := tr.begin("experiments."+r.ID, i, -1)
		table, err := r.Run(cfg)
		d := tr.end(s).Seconds()
		rt := readRuntime().sub(rt0)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", r.ID, err)
		}
		if err := table.Render(&serial); err != nil {
			return nil, err
		}
		out.set("experiments.table_s."+r.ID, "s", d)
		slowest = math.Max(slowest, d)
		name := "experiments." + r.ID
		if r.ID == "E10" {
			name = "gather (experiments.E10)"
			out.set("gather.allocs", "count", rt.allocObjects)
			out.set("gather.alloc_mb", "MB", rt.allocBytes/1e6)
		}
		l.layers = append(l.layers, layerTime{name, d})
	}
	out.set("experiments.critical_path_share", "ratio", slowest/l.wall)
	l.base, l.baseNote = workers*l.wall, fmt.Sprintf("%g workers × untraced wall; runner self-times are serial", workers)

	out.attempted += 2
	if traced.String() != untraced.String() {
		out.failed++
		out.fail("tables: traced pass output differs from the untraced pass")
	}
	if serial.String() != untraced.String() {
		out.failed++
		out.fail("tables: runners rendered one by one differ from the suite pass")
	}
	return l, nil
}

// traceSweep runs the sweep grids untraced and traced, then replays every
// grid row serially through sampler.Draws, sim.RendezvousBatch and
// sim.Rendezvous on the same lanes. It also returns the meeting times of
// the replayed instances.
func traceSweep(e *env, tr *tracer, out *outcome, workers float64) (*ladder, []float64, error) {
	l := &ladder{workload: "sweep"}
	plain := func() (float64, error) {
		_, walls, err := runSweepGrids(sweepConfig(e.seed))
		return sum(walls), err
	}
	var rows, lanes atomic.Int64
	var jobs []float64
	pass := func() (float64, error) {
		cfg := sweepConfig(e.seed)
		mon := &sweep.Monitor{}
		cfg.Monitor = mon
		rows.Store(0)
		lanes.Store(0)
		cfg.OnBatch = func(r, n int) {
			rows.Add(int64(r))
			lanes.Add(int64(n))
		}
		rt0 := readRuntime()
		root := tr.begin("sweep.grids", 0, -1)
		_, _, err := runSweepGrids(cfg)
		wall := tr.end(root).Seconds()
		l.rt = fromSample(readRuntime().sub(rt0))
		jobs = mon.Durations()
		return wall, err
	}
	if _, err := plain(); err != nil { // warm-up, discarded
		return nil, nil, err
	}
	var err error
	if l.wall, l.traced, err = alternate(plain, pass); err != nil {
		return nil, nil, err
	}
	out.set("sweep.jobs", "count", float64(len(jobs)))
	out.set("sweep.job_p50_ms", "ms", 1e3*median(jobs))
	out.set("sweep.job_max_ms", "ms", 1e3*analysis.Quantile(jobs, 1))
	out.set("sweep.busy_share", "ratio", sum(jobs)/(workers*l.traced))
	out.set("sim.batch_rows", "count", float64(rows.Load()))
	out.set("sim.batch_lanes_per_row", "count", float64(lanes.Load())/float64(rows.Load()))

	src := sampler.New(sampler.Pseudo, sweepSamples)
	var draws, drawSec, batchSec, scalarSec, allocBytes, intervals, nLanes, nRows float64
	var meetings []float64
	op := 0
	for _, g := range sweepGrids {
		grid, err := sweep.ParseGrid(g.specs...)
		if err != nil {
			return nil, nil, err
		}
		names := make([]string, len(grid))
		for i, ax := range grid {
			names[i] = ax.Name
		}
		var gridBatch, gridScalar float64
		for ci := 0; ci < grid.Size(); ci++ {
			op++
			row := tr.begin("sweep.row", op, -1)
			s := tr.begin("sampler", op, row)
			var ln batch.Lanes
			var ins []sim.Instance
			for si := 0; si < sweepSamples; si++ {
				in, err := experiments.GridInstance(names, grid.Point(ci))
				if err != nil {
					return nil, nil, err
				}
				in.D = geom.Polar(in.D.Norm(), 2*math.Pi*src.Draws(e.seed, ci*sweepSamples+si).Float64(0))
				ln.AddRendezvous(in.Attrs, in.D, in.R, experiments.RendezvousHorizon(in))
				ins = append(ins, in)
			}
			tr.end(s)
			rt0 := readRuntime()
			s = tr.begin("sim.batch", op, row)
			bres, berrs := sim.RendezvousBatch(algo.CumulativeSearch(), &ln, sim.Options{})
			gridBatch += tr.end(s).Seconds()
			allocBytes += readRuntime().sub(rt0).allocBytes
			tr.end(row)

			s = tr.begin("sim.scalar", op, -1)
			sres := make([]sim.Result, len(ins))
			for i, in := range ins {
				r, err := sim.Rendezvous(algo.CumulativeSearch(), in, sim.Options{Horizon: experiments.RendezvousHorizon(in)})
				if err != nil {
					return nil, nil, err
				}
				sres[i] = r
			}
			gridScalar += tr.end(s).Seconds()
			out.attempted++
			for i := range sres {
				if berrs[i] != nil || bres[i] != sres[i] {
					out.failed++
					out.fail("sweep replay %s point %d lane %d: batch %v differs from scalar %v", g.name, ci, i, bres[i], sres[i])
					break
				}
			}
			for _, r := range sres {
				intervals += float64(r.Intervals)
				if r.Met {
					meetings = append(meetings, r.Time)
				}
			}
			nLanes += float64(len(ins))
			nRows++
		}
		out.set("sim.batch_over_scalar."+g.name, "ratio", gridBatch/gridScalar)
		batchSec += gridBatch
		scalarSec += gridScalar
	}

	// sampler.Draws alone, over every draw the grids make.
	start := time.Now()
	for ci := 0; ci < int(nLanes); ci++ {
		sink += src.Draws(e.seed, ci).Float64(0)
		draws++
	}
	drawSec = time.Since(start).Seconds()

	out.set("sampler.ns_per_draw", "ns", 1e9*drawSec/draws)
	out.set("sim.scalar_us_per_instance", "us", 1e6*scalarSec/nLanes)
	out.set("sim.intervals_per_instance", "count", intervals/nLanes)
	out.set("sim.ns_per_interval", "ns", 1e9*scalarSec/intervals)
	out.set("sim.batch_us_per_lane", "us", 1e6*batchSec/nLanes)
	out.set("sim.batch_alloc_mb_per_row", "MB", allocBytes/nRows/1e6)

	l.layers = []layerTime{
		{"sampler (draws, lane build)", tr.selfSeconds("sampler")},
		{"sim.batch (RendezvousBatch)", tr.selfSeconds("sim.batch")},
	}
	l.base, l.baseNote = workers*l.wall, fmt.Sprintf("%g workers × untraced wall; row replays are serial", workers)
	return l, meetings, nil
}

// traceTrajectory drains Algorithms 4 and 7 through a trajectory.Cursor,
// and counts the Algorithm 4 segments before each of the given meetings.
func traceTrajectory(tr *tracer, out *outcome, meetings []float64) error {
	const n = 1 << 18
	total := time.Duration(0)
	for i, program := range []func() trajectory.Source{algo.CumulativeSearch, algo.Universal} {
		s := tr.begin("trajectory.drain", i, -1)
		cur := trajectory.NewCursor(program())
		dur := 0.0
		for k := 0; k < n; k++ {
			seg, ok := cur.Next()
			if !ok {
				cur.Close()
				return fmt.Errorf("program %d ended after %d segments", i, k)
			}
			dur += seg.Duration()
		}
		cur.Close()
		total += tr.end(s)
		if !(dur > 0) {
			return fmt.Errorf("program %d: non-positive duration", i)
		}
	}
	out.set("trajectory.ns_per_segment", "ns", float64(total.Nanoseconds())/(2*n))

	// Segments the reference robot's Algorithm 4 program runs through before
	// each sweep instance's meeting: prefix durations, searched per instance.
	cur := trajectory.NewCursor(algo.CumulativeSearch())
	defer cur.Close()
	var ends []float64
	t := 0.0
	grab := func(until float64) {
		for t < until && len(ends) < 1<<22 {
			seg, ok := cur.Next()
			if !ok {
				return
			}
			t += seg.Duration()
			ends = append(ends, t)
		}
	}
	segs := 0.0
	for _, tm := range meetings {
		grab(tm)
		segs += float64(sort.SearchFloat64s(ends, tm) + 1)
	}
	out.set("trajectory.segments_per_instance", "count", segs/float64(len(meetings)))
	return nil
}

// traceServe drives two untraced and two traced daemons through the same
// sequence, alternating, then replays the sequence's cache and sim work
// in-process. The per-layer figures come from the last traced daemon. It
// returns no ladder when a daemon crashed; the failures are counted.
func traceServe(e *env, tr *tracer, out *outcome) (*ladder, error) {
	l := &ladder{workload: "serve"}
	in, err := prepareServe(e, serveRequests(e.seconds))
	if err != nil {
		return nil, err
	}
	plan := in.plan
	var loads []*load
	drive := func(trace bool) func() (float64, error) {
		return func() (float64, error) {
			ld, err := runLoad(e, in, fmt.Sprintf("load-%d", len(loads)), trace)
			if err != nil {
				return 0, err
			}
			loads = append(loads, ld)
			return ld.res.WallSec, nil
		}
	}
	if l.wall, l.traced, err = alternate(drive(false), drive(true)); err != nil {
		return nil, err
	}
	clean := true
	for i, ld := range loads {
		ok, err := countLoad(plan, fmt.Sprintf("serve load %d", i), ld, out)
		if err != nil {
			return nil, err
		}
		clean = clean && ok
	}
	if !clean {
		return nil, nil
	}
	traced := loads[2]
	tr.adopt(traced.res.Spans, traced.window[0])

	// Client-side split by the generator's hit/miss record, and the
	// server's own elapsed_ms.
	elapsed := make([]float64, len(plan.requests))
	for _, s := range traced.res.Spans {
		if s.Name == "rvserved.server" {
			elapsed[s.Op] = float64(s.End-s.Start) / 1e6
		}
	}
	var all, hitLat, missLat, server, overhead []float64
	httpSelf := 0.0
	for i, r := range plan.requests {
		lat := float64(traced.res.LatNS[i]) / 1e6
		all = append(all, lat)
		httpSelf += lat - elapsed[i]
		switch r.Class {
		case classHit:
			hitLat = append(hitLat, lat)
		case classMiss:
			missLat = append(missLat, lat)
		}
		if r.Class == classHit || r.Class == classMiss {
			server = append(server, elapsed[i])
			overhead = append(overhead, lat-elapsed[i])
		}
	}
	out.set("rvserved.hit_p50_ms", "ms", median(hitLat))
	out.set("rvserved.miss_p50_ms", "ms", median(missLat))
	out.set("rvserved.server_p50_ms", "ms", median(server))
	out.set("rvserved.overhead_p50_ms", "ms", median(overhead))
	// The client-observed p99 swings with the machine's load far more than
	// the median, so it is reported here rather than bounded end to end.
	out.set("rvserved.p99_ms", "ms", analysis.Quantile(all, 0.99))
	fmt.Printf("serve latency (traced sequence): p50 %.4f ms, p99 %.4f ms over %d requests; hits p50 %.4f ms (%d), misses p50 %.4f ms (%d)\n",
		median(all), analysis.Quantile(all, 0.99), len(all), median(hitLat), len(hitLat), median(missLat), len(missLat))
	printMixSensitivity(plan, traced.res)
	counter := func(name string) float64 {
		return float64(traced.after.Counters[name].Total - traced.before.Counters[name].Total)
	}
	out.set("rvserved.requests", "count", counter("http.requests"))
	out.set("rvserved.errors", "count", counter("http.errors"))
	out.set("rvserved.rejected", "count", counter("sweep.rejected"))
	out.set("rvserved.deadline", "count", counter("requests.deadline"))
	cs0, cs1 := traced.before.Cache, traced.after.Cache
	lookups := float64(cs1.Lookups - cs0.Lookups)
	out.set("cache.lookups", "count", lookups)
	out.set("cache.hit_ratio", "ratio", float64(cs1.Hits-cs0.Hits)/lookups)
	out.set("cache.dedups", "count", float64(cs1.Dedups-cs0.Dedups))
	fmt.Printf("serve cache: %.0f lookups, hit ratio %.4f (base: %.0f lookups), %d dedups\n",
		lookups, float64(cs1.Hits-cs0.Hits)/lookups, lookups, cs1.Dedups-cs0.Dedups)
	gcSec := traced.d.gcCPUSeconds(traced.window[0], traced.window[1])
	l.rt = goRuntime{
		gcCycles:   float64(traced.after.Runtime.NumGC - traced.before.Runtime.NumGC),
		gcCPUShare: gcSec / traced.cpuS,
		allocMB:    float64(traced.after.Runtime.TotalAlloc-traced.before.Runtime.TotalAlloc) / 1e6,
		cpuS:       traced.cpuS,
	}

	// Disk layer: open the warm-start file the daemon replays.
	dir := filepath.Join(e.scratch, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "cache.jsonl")
	size := 0.0
	for _, suffix := range []string{"", ".journal"} {
		if err := copyFile(in.warmFile+suffix, path+suffix); err != nil {
			return nil, err
		}
		st, err := os.Stat(path + suffix)
		if err != nil {
			return nil, err
		}
		size += float64(st.Size())
	}
	s := tr.begin("cache.Open", 0, -1)
	disk, err := cache.Open(path, daemonCache)
	openSec := tr.end(s).Seconds()
	if err != nil {
		return nil, err
	}
	out.set("cache.open_s", "s", openSec)
	out.set("cache.open_us_per_record", "us", 1e6*openSec/float64(plan.warm))
	out.set("cache.bytes_per_record", "B", size/float64(plan.warm))
	out.set("cache.corrupt", "count", float64(disk.Stats().Corrupt))
	if disk.Stats().Corrupt != 0 {
		out.fail("cache.corrupt = %d after opening the warm-start file", disk.Stats().Corrupt)
	}

	// Memory layer: the sequence's hits as Gets, its misses as Puts.
	var hitKeys []cache.Key
	var missIdx []int
	for _, r := range plan.requests {
		switch r.Class {
		case classHit:
			hitKeys = append(hitKeys, plan.queries[r.Query].key())
		case classMiss:
			missIdx = append(missIdx, r.Query)
		}
	}
	// Puts first: a hit may repeat a miss earlier in the sequence.
	mem := cache.New(daemonCache)
	s = tr.begin("cache.put", 0, -1)
	for _, qi := range missIdx {
		mem.Put(plan.queries[qi].key(), plan.results[qi])
	}
	putSec := tr.end(s).Seconds()
	s = tr.begin("cache.put_journal", 0, -1)
	for _, qi := range missIdx {
		disk.Put(plan.queries[qi].key(), plan.results[qi])
	}
	journalSec := tr.end(s).Seconds()
	found := 0
	s = tr.begin("cache.get", 0, -1)
	for _, k := range hitKeys {
		if _, ok := disk.Get(k); ok {
			found++
		}
	}
	getSec := tr.end(s).Seconds()
	out.attempted++
	if found != len(hitKeys) {
		out.failed++
		out.fail("cache replay: %d of %d planned hits found", found, len(hitKeys))
	}
	s = tr.begin("cache.Save", 0, -1)
	err = disk.Save()
	saveSec := tr.end(s).Seconds()
	if err != nil {
		return nil, err
	}
	out.set("cache.hit_ns", "ns", 1e9*getSec/float64(len(hitKeys)))
	out.set("cache.put_ns", "ns", 1e9*putSec/float64(len(missIdx)))
	out.set("cache.journal_put_us", "us", 1e6*journalSec/float64(len(missIdx)))
	out.set("cache.save_s", "s", saveSec)

	// Simulation behind the misses and the sweeps.
	s = tr.begin("sim.scalar", 0, -1)
	for _, qi := range missIdx {
		if _, err := plan.queries[qi].simulate(); err != nil {
			return nil, err
		}
	}
	simSec := tr.end(s).Seconds()
	// The sweeps share one cache, as in the daemon: the first computes its
	// cells, the rest find them cached.
	sweepCache := cache.New(daemonCache)
	s = tr.begin("experiments.SweepGrid", 0, -1)
	for _, r := range plan.requests {
		if r.Class != classSweep {
			continue
		}
		var req sweepRequest
		if err := json.Unmarshal([]byte(r.Body), &req); err != nil {
			return nil, err
		}
		if _, err := experiments.SweepGrid(req.Axes, "", experiments.Config{Seed: req.Seed, Samples: req.Samples, Batch: true, Cache: sweepCache}); err != nil {
			return nil, err
		}
	}
	sweepSec := tr.end(s).Seconds()

	clientSelf := traced.res.WallSec - sumNS(traced.res.LatNS)
	l.layers = []layerTime{
		{"client (encode, send, read)", clientSelf},
		{"rvserved http (latency − elapsed_ms)", httpSelf / 1e3},
		{"cache.get (hits)", getSec},
		{"sim.scalar (misses)", simSec},
		{"cache.put + journal (misses)", journalSec},
		{"experiments.SweepGrid (sweeps)", sweepSec},
	}
	l.base, l.baseNote = l.wall, "untraced sequence wall; server layers replayed in-process"
	return l, nil
}

// printMixSensitivity prints, per request class, its share of the sequence
// and of the summed latency, and how far wall_s and p50_ms would move
// without it (the other classes scaled up to the same request count). The
// mix's search, feasibility and sweep shares have no recorded source; this
// shows how much the end-to-end figures depend on them.
func printMixSensitivity(plan *servePlan, res clientResult) {
	var all []float64
	for _, ns := range res.LatNS {
		all = append(all, float64(ns)/1e6)
	}
	total, p50 := sum(all), median(all)
	fmt.Println("serve mix sensitivity (traced sequence; without a class, the others scaled to the same count):")
	for _, path := range []string{"/v1/rendezvous", "/v1/search", "/v1/feasibility", "/v1/sweep"} {
		var mine, rest []float64
		for i, r := range plan.requests {
			if r.Path == path {
				mine = append(mine, all[i])
			} else {
				rest = append(rest, all[i])
			}
		}
		wallWithout := sum(rest) * float64(len(all)) / float64(len(rest))
		fmt.Printf("  %-16s %5.1f%% of requests, p50 %.4f ms, %5.1f%% of latency; without it wall_s %+5.1f%%, p50_ms %+5.1f%%\n",
			path, 100*float64(len(mine))/float64(len(all)), median(mine), 100*sum(mine)/total,
			100*(wallWithout/total-1), 100*(median(rest)/p50-1))
	}
}

// sink keeps measured calls' results live.
var sink float64

func sumNS(xs []int64) float64 {
	t := int64(0)
	for _, x := range xs {
		t += x
	}
	return float64(t) / 1e9
}
