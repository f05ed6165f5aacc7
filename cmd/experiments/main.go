// Command experiments regenerates every experiment table of the
// reproduction: E1-E9 reproduce the paper's quantitative claims (theorem
// bounds, phase schedules, feasibility grid, baselines), E10-E16 are
// extensions, and A1-A3 ablate our own design choices. See experiments.All
// for the per-experiment index; internal/experiments/testdata holds a
// recorded reference run.
//
// Usage:
//
//	experiments [-run ID] [-markdown] [-workers N] [-seed S] [-samples K]
//	            [-sampler NAME]
//	            [-cache] [-cachefile F] [-cachesize N]
//	            [-cachewarm F]... [-v]
//	            [-grid spec]... [-gridalgo A]
//	            [-shard I/K [-shardfile F]]
//	            [-merge F]... [-merge-dir D [-merge-poll T] [-merge-timeout T]]
//
//	-run ID       run a single experiment (e.g. E3); empty = all
//	-markdown     emit GitHub-flavoured markdown instead of text
//	-workers N    sweep worker-pool size: 0 = one per CPU, 1 = serial.
//	              All experiments share one pool, so N is an exact
//	              process-wide cap. Output is bit-identical for every value.
//	-seed S       base seed for Monte-Carlo sampling (per-instance seeds
//	              are derived from (S, instance index))
//	-samples K    K > 0 switches the sampling-aware experiments (E1) and
//	              grid sweeps to K random draws per grid cell, with
//	              summary statistics
//	-sampler NAME draw source for the Monte-Carlo sweeps: "pseudo" (the
//	              default, bit-identical to all previously recorded
//	              tables), or a low-discrepancy kind — "stratified",
//	              "halton", "sobol" — which reaches a given estimator
//	              error at far fewer -samples (see the CONV experiment).
//	              Deterministic (non -samples) runs ignore it
//	-cache        memoize simulation results in memory (identical output,
//	              repeated instances simulate once)
//	-cachefile F  persist the cache to the JSON-lines file F (implies
//	              -cache): warm re-runs are near-free
//	-cachesize N  LRU capacity of the cache (0 = default)
//	-cachewarm F  fold the cache file F in before the run (repeatable,
//	              implies -cache; later files win ties; a missing F is
//	              an error, not a silent cold run) — e.g. the
//	              shard-I-of-K.cache.jsonl files a sharded -cache run
//	              published, so a later overlapping sweep is served from
//	              the fleet's combined work
//	-v            live progress on stderr: jobs done/total, cache
//	              hits/misses, and a per-job timing summary at the end.
//	              When stderr is a terminal the line redraws in place;
//	              redirected stderr gets plain line-per-update output
//	              with no control sequences
//	-grid spec    sweep a rendezvous parameter axis (repeatable), e.g.
//	              -grid "v=0.25:1:0.25" -grid "phi=0:3.14:0.1"; axes are
//	              v, tau, phi, chi, d, r, crossed into one grid and
//	              rendered as one table instead of the experiment suite
//	-gridalgo A   algorithm for -grid: "search" (Alg. 4) or "universal"
//
// Distributed shard/merge execution — split any run (the suite, -run, or a
// -grid sweep) across K independent processes and recombine bit-identically
// (see internal/experiments shard.go; cmd/shardall automates it locally):
//
//	-shard I/K    execute only shard I of a K-way run (zero-based stride
//	              partition over every sweep's job indices) and write the
//	              per-job results to -shardfile instead of rendering
//	              tables; per-job seeding is unchanged, so each job's
//	              result is byte-identical to the single-process run.
//	              With -cache, the shard also publishes its result cache
//	              alongside the record file (shard-I-of-K.cache.jsonl) so
//	              merges and later overlapping sweeps can warm from the
//	              union of the fleet's caches
//	-shardfile F  shard record file to write (default shard-I-of-K.jsonl)
//	-merge F      merge shard record files (repeatable) and render the
//	              final tables: recorded jobs are served instead of
//	              re-executed, missing or damaged records recompute
//	              locally to identical bytes. The other flags (-seed,
//	              -samples, -grid, ...) must match the sharded runs;
//	              unset -seed/-samples are adopted from the files, while
//	              explicitly passed values (including an explicit
//	              "-seed 0") are checked against them and conflicts are
//	              rejected. With -cache, each merged file's cache sibling
//	              (F with .jsonl replaced by .cache.jsonl), when present,
//	              is folded into the cache before the run
//	-merge-dir D  streaming merge: watch directory D (which must exist)
//	              and ingest shard record files (*.jsonl, ignoring
//	              *.cache.jsonl siblings and files already named by
//	              -merge) as they appear, then render as soon as every
//	              stride
//	              0..K-1 of the partition is covered — without waiting
//	              for the slowest producer. K is learned from the first
//	              file's meta line; files are written via atomic rename,
//	              so any visible file is complete. The directory must
//	              hold only one run's record files: a file whose meta
//	              conflicts with the first one ingested is a fatal
//	              error, not a skip. Composes with -merge (those files
//	              are ingested first)
//	-merge-poll T     polling interval for -merge-dir (default 200ms)
//	-merge-timeout T  give up waiting for full coverage after T: with at
//	              least one file ingested the merge proceeds and
//	              recomputes the stragglers locally, with none it fails
//	              (default 0 = wait for full coverage indefinitely)
//
// A non-zero exit status means a paper claim failed to reproduce.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sampler"
	"repro/internal/sweep"
)

// multiFlag collects the values of a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ", ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var grids, merges, warms multiFlag
	var (
		id        = flag.String("run", "", "run a single experiment by id (e.g. E3); empty = all")
		markdown  = flag.Bool("markdown", false, "emit GitHub-flavoured markdown instead of text")
		workers   = flag.Int("workers", 0, "sweep workers: 0 = one per CPU, 1 = serial (same output either way)")
		seed      = flag.Int64("seed", 0, "base seed for Monte-Carlo sampling")
		samples   = flag.Int("samples", 0, "Monte-Carlo draws per grid cell (0 = deterministic grids)")
		samplerNm = flag.String("sampler", "", `Monte-Carlo draw source: pseudo (default), stratified, halton, or sobol`)
		useCache  = flag.Bool("cache", false, "memoize simulation results in memory")
		cacheFile = flag.String("cachefile", "", "persist the result cache to this JSON-lines file (implies -cache)")
		cacheSize = flag.Int("cachesize", 0, "LRU capacity of the result cache (0 = default)")
		verbose   = flag.Bool("v", false, "live sweep progress and timing summary on stderr")
		gridAlgo  = flag.String("gridalgo", "search", `algorithm for -grid sweeps: "search" or "universal"`)
		shardSpec = flag.String("shard", "", `execute one shard "I/K" of a distributed run and record it to -shardfile`)
		shardFile = flag.String("shardfile", "", "shard record file to write (default shard-I-of-K.jsonl)")
		mergeDir  = flag.String("merge-dir", "", "streaming merge: ingest shard record files from this directory as they appear")
		mergePoll = flag.Duration("merge-poll", 200*time.Millisecond, "directory polling interval for -merge-dir")
		mergeWait = flag.Duration("merge-timeout", 0, "stop waiting for full shard coverage after this long (0 = wait indefinitely)")
	)
	flag.Var(&grids, "grid", `sweep axis "name=v1,v2,..." or "name=lo:hi:step" (repeatable)`)
	flag.Var(&merges, "merge", "merge this shard record file into the run (repeatable)")
	flag.Var(&warms, "cachewarm", "warm the cache from this cache file before the run (repeatable; implies -cache)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	samplerKind, err := sampler.ParseKind(*samplerNm)
	if err != nil {
		return fail(err)
	}
	cfg := experiments.Config{Workers: *workers, Seed: *seed, Samples: *samples, Sampler: samplerKind, Batch: true}

	// Shard/merge setup. The scope fingerprint ties shard files to the
	// workload that produced them (suite vs. a specific grid).
	merging := len(merges) > 0 || *mergeDir != ""
	if *shardSpec != "" && merging {
		return fail(errors.New("-shard and -merge/-merge-dir are mutually exclusive"))
	}
	scope, err := experiments.ShardScope(grids, *gridAlgo)
	if err != nil {
		return fail(err)
	}

	// The cache opens before merge ingestion so that ingestion can warm it
	// from the shard cache files sitting next to the record files. An
	// explicitly named -cachewarm file must exist — unlike the auto-derived
	// shard siblings, a typo here would otherwise masquerade as a cold run.
	for _, w := range warms {
		if _, err := os.Stat(w); err != nil {
			return fail(fmt.Errorf("-cachewarm: %w", err))
		}
	}
	if *cacheFile != "" {
		c, err := cache.Open(*cacheFile, *cacheSize, warms...)
		if err != nil {
			return fail(err)
		}
		cfg.Cache = c
	} else if *useCache || len(warms) > 0 {
		cfg.Cache = cache.New(*cacheSize)
		if _, err := cfg.Cache.Merge(warms...); err != nil {
			return fail(err)
		}
	}

	out := io.Writer(os.Stdout)
	if *shardSpec != "" {
		shard, err := sweep.ParseShard(*shardSpec)
		if err != nil {
			return fail(err)
		}
		cfg.Shard = shard
		cfg.Store = experiments.NewShardStore()
		if *shardFile == "" {
			*shardFile = fmt.Sprintf("shard-%d-of-%d.jsonl", shard.Index, shard.Count)
		}
		// A shard's tables are partial by construction: only the record
		// file is meaningful output.
		out = io.Discard
	} else if *shardFile != "" {
		return fail(errors.New("-shardfile requires -shard I/K"))
	}

	var mergeSet *experiments.MergeSet
	if merging {
		mergeSet = experiments.NewMergeSet()
		warmedEntries, warmedFiles := 0, 0
		ingest := func(path string) error {
			meta, err := mergeSet.Add(path)
			if err != nil {
				return err
			}
			// Warm the cache from the shard's published cache sibling, when
			// the shard emitted one and this run carries a cache at all. The
			// cache is an accelerator, never a source of truth: an unreadable
			// sibling costs warmth, not the merge.
			if n, err := cfg.Cache.Merge(shardCachePath(path)); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: warning: %v; proceeding without that cache\n", err)
			} else if n > 0 {
				warmedEntries += n
				warmedFiles++
			}
			if *verbose || *mergeDir != "" {
				fmt.Fprintf(os.Stderr, "experiments: ingested shard %s (%s)\n", meta.Shard, path)
			}
			return nil
		}
		for _, f := range merges {
			if err := ingest(f); err != nil {
				return fail(err)
			}
		}
		if *mergeDir != "" {
			if err := watchMergeDir(*mergeDir, *mergePoll, *mergeWait, merges, mergeSet, ingest); err != nil {
				return fail(err)
			}
		}
		if mergeSet.Len() == 0 {
			return fail(errors.New("no shard files to merge"))
		}
		seedSet, samplesSet, samplerSet := explicitSet()
		if err := adoptShardMeta(&cfg, mergeSet.Metas()[0], scope, seedSet, samplesSet, samplerSet); err != nil {
			return fail(err)
		}
		if missing := mergeSet.Missing(); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "experiments: warning: shards %s not supplied; their jobs recompute locally\n",
				strings.Join(missing, ", "))
		}
		if warmedFiles > 0 {
			fmt.Fprintf(os.Stderr, "experiments: cache warmed with %d entries from %d shard cache files\n",
				warmedEntries, warmedFiles)
		}
		cfg.Store = mergeSet.Store()
	}

	var finishProgress func()
	if *verbose {
		cfg.Monitor, finishProgress = stderrProgress(cfg.Cache)
	}

	switch {
	case len(grids) > 0:
		err = experiments.RunGridCfg(out, *markdown, grids, *gridAlgo, cfg)
	case *id == "":
		err = experiments.RunAllCfg(out, *markdown, cfg)
	default:
		err = experiments.RunOneCfg(*id, out, *markdown, cfg)
	}
	if finishProgress != nil {
		finishProgress()
	}
	if err == nil && *shardSpec != "" {
		// The cache sibling is published before the record file: a streaming
		// merge treats the record file's appearance as "this shard is done",
		// so its cache must already be in place by then.
		if cfg.Cache != nil {
			if err = cfg.Cache.SaveAs(shardCachePath(*shardFile)); err == nil {
				fmt.Fprintf(os.Stderr, "experiments: shard %s: %d cache entries -> %s\n",
					cfg.Shard, cfg.Cache.Len(), shardCachePath(*shardFile))
			}
		}
		if err == nil {
			if err = cfg.Store.Save(*shardFile, cfg.Meta(scope)); err == nil {
				fmt.Fprintf(os.Stderr, "experiments: shard %s: %d job records -> %s\n",
					cfg.Shard, cfg.Store.Len(), *shardFile)
			}
		}
	}
	if err == nil && mergeSet != nil {
		fmt.Fprintf(os.Stderr, "experiments: merged %d shard files: %d jobs served, %d recomputed locally\n",
			mergeSet.Len(), cfg.Store.Served(), cfg.Store.Recorded())
	}
	if cfg.Cache != nil {
		if serr := cfg.Cache.Save(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// shardCachePath derives the published cache sibling of a shard record
// file: shard-1-of-3.jsonl -> shard-1-of-3.cache.jsonl.
func shardCachePath(recordPath string) string {
	return strings.TrimSuffix(recordPath, ".jsonl") + ".cache.jsonl"
}

// explicitSet reports which of -seed/-samples were actually passed on the
// command line. flag.Visit only sees set flags, which is what separates an
// explicit "-seed 0" — a claim about the workload that must be checked
// against the shard files — from an omitted flag, which adopts their
// recorded value.
func explicitSet() (seedSet, samplesSet, samplerSet bool) {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "samples":
			samplesSet = true
		case "sampler":
			samplerSet = true
		}
	})
	return seedSet, samplesSet, samplerSet
}

// adoptShardMeta reconciles the merge invocation's flags with the shard
// files' recorded fingerprint: explicitly set flags must match (mixing
// workloads would silently corrupt tables); unset -seed/-samples adopt the
// recorded values so a bare `-merge` just works. seedSet/samplesSet come
// from explicitSet — the flag values alone cannot distinguish an explicit
// zero from an omitted flag.
func adoptShardMeta(cfg *experiments.Config, meta experiments.ShardMeta, scope string, seedSet, samplesSet, samplerSet bool) error {
	if meta.Scope != scope {
		return fmt.Errorf("shard files were produced for scope %q but this invocation is %q (pass the same -grid/-gridalgo flags)",
			meta.Scope, scope)
	}
	if seedSet && cfg.Seed != meta.Seed {
		return fmt.Errorf("-seed %d conflicts with the shard files' seed %d", cfg.Seed, meta.Seed)
	}
	if samplesSet && cfg.Samples != meta.Samples {
		return fmt.Errorf("-samples %d conflicts with the shard files' samples %d", cfg.Samples, meta.Samples)
	}
	// An omitted meta field is the pseudo sampler (pre-sampler shard files).
	recorded, err := sampler.ParseKind(meta.Sampler)
	if err != nil {
		return fmt.Errorf("shard files carry unknown sampler %q", meta.Sampler)
	}
	if samplerSet && cfg.Sampler != recorded {
		return fmt.Errorf("-sampler %s conflicts with the shard files' sampler %s", cfg.Sampler, recorded)
	}
	cfg.Seed, cfg.Samples, cfg.Sampler = meta.Seed, meta.Samples, recorded
	return nil
}

// watchMergeDir polls dir for shard record files (*.jsonl, excluding the
// *.cache.jsonl siblings; WriteJSONLines' *.jsonl.tmp* intermediates never
// match the glob) and ingests each exactly once as it appears — record
// files land via atomic rename, so any visible file is complete. Files in
// already (the explicit -merge arguments) were ingested before the watch
// and are skipped when they also live inside dir. The directory itself must
// exist up front: a typo'd path would otherwise poll forever looking empty.
// It returns once every stride of the K-way partition is covered (K is
// learned from the first ingested file) or, when timeout > 0, once the
// deadline passes: with at least one file ingested the merge proceeds and
// recomputes the stragglers locally; with none it fails.
func watchMergeDir(dir string, poll, timeout time.Duration, already []string, ms *experiments.MergeSet, ingest func(string) error) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("-merge-dir: %w", err)
	}
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	fmt.Fprintf(os.Stderr, "experiments: watching %s for shard record files (poll %v)\n", dir, poll)
	seen := make(map[string]bool)
	for _, p := range already {
		seen[canonPath(p)] = true
	}
	for {
		paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		if err != nil {
			return err
		}
		sort.Strings(paths)
		for _, p := range paths {
			if seen[canonPath(p)] || strings.HasSuffix(p, ".cache.jsonl") {
				continue
			}
			seen[canonPath(p)] = true
			if err := ingest(p); err != nil {
				return err
			}
		}
		if ms.Complete() {
			return nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if ms.Len() == 0 {
				return fmt.Errorf("-merge-dir %s: no shard files appeared within %v", dir, timeout)
			}
			return nil
		}
		time.Sleep(poll)
	}
}

// canonPath normalizes a path for the watcher's seen-set, so an explicit
// -merge file inside the watched directory is recognized however it was
// spelled — including through a symlink. Absolutization alone is not enough:
// "-merge link/shard-0.jsonl" with link -> the watched directory produces an
// absolute path that differs textually from the globbed one, the seen-set
// misses, and the same shard file is ingested twice (double-counting the
// merge's served stats). EvalSymlinks resolves both spellings to one
// canonical path; a path that cannot be resolved (dangling link, permission)
// falls back to the absolute form.
func canonPath(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		return filepath.Clean(p)
	}
	if resolved, err := filepath.EvalSymlinks(abs); err == nil {
		return resolved
	}
	return abs
}

// stderrProgress returns a sweep monitor that reports live progress on
// stderr — jobs done/total plus the cache counters — and a finisher that
// prints the terminal per-job timing summary.
func stderrProgress(c *cache.Cache) (*sweep.Monitor, func()) {
	return progressMonitor(os.Stderr, isTerminal(os.Stderr), c)
}

// progressMonitor is stderrProgress over an explicit writer. On a terminal
// the progress line is redrawn in place (\r + erase-to-EOL, throttled to
// 10 Hz); everywhere else — CI logs, shardall's captured per-shard stderr,
// any redirect — it degrades to one plain line per update, throttled to
// 1 Hz so control sequences never garble captured logs.
func progressMonitor(w io.Writer, tty bool, c *cache.Cache) (*sweep.Monitor, func()) {
	mon := &sweep.Monitor{}
	var mu sync.Mutex
	var lastPrint time.Time
	var lastLine string
	throttle := 100 * time.Millisecond
	if !tty {
		throttle = time.Second
	}
	line := func(done, total int64) string {
		s := fmt.Sprintf("jobs %d/%d", done, total)
		if c != nil {
			st := c.Stats()
			s += fmt.Sprintf("  cache %d hits / %d misses", st.Hits, st.Misses)
		}
		return s
	}
	print := func(s string) {
		lastLine = s
		if tty {
			fmt.Fprintf(w, "\r\x1b[K%s", s)
		} else {
			fmt.Fprintf(w, "%s\n", s)
		}
	}
	mon.OnChange = func(done, total int64) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(lastPrint) < throttle && done != total {
			return
		}
		lastPrint = time.Now()
		print(line(done, total))
	}
	return mon, func() {
		done, total := mon.Progress()
		mu.Lock()
		s := line(done, total)
		// On a terminal the final redraw needs its closing newline either
		// way; in plain mode, skip the reprint when the last update already
		// emitted this exact line (done==total bypasses the throttle, so
		// the final count usually has).
		if tty {
			fmt.Fprintf(w, "\r\x1b[K%s\n", s)
		} else if s != lastLine {
			print(s)
		}
		mu.Unlock()
		if times := mon.Durations(); len(times) > 0 {
			fmt.Fprintf(w, "job times (s): %v\n", analysis.Summarize(times))
		}
	}
}

// isTerminal reports whether f is a character device — the dependency-free
// check that keeps control sequences out of redirected output.
func isTerminal(f *os.File) bool {
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
