// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark numbers can be committed (BENCH_sim.json)
// and diffed across PRs. Lines that are not benchmark results (headers,
// PASS/ok trailers, logs) are ignored.
//
// Usage:
//
//	go test -run NONE -bench . -benchmem . | benchjson -merge BENCH_sim.json > new.json
//	go test -run NONE -bench . -benchmem . | benchjson -compare-history BENCH_history.jsonl
//	benchjson -append BENCH_history.jsonl < BENCH_sim.json
//
// -merge FILE carries forward any top-level keys of an existing document
// that this run does not produce — the hand-recorded baseline_pre_pr
// section in particular — so regenerating never destroys recorded
// baselines. A missing FILE is ignored. (Write to a temporary file and
// rename, as `make bench` does: the shell truncates a direct `> FILE`
// redirect before -merge can read it.)
//
// -append FILE reads one JSON document (a BENCH_sim.json, not bench output)
// on stdin and appends it compacted to one line of the JSON-lines trajectory
// history at FILE (`make bench` keeps BENCH_history.jsonl this way). The
// committed history gives windowed gates — e.g. a median of ns/op over the
// last N runs, which single-run comparisons on noisy shared hardware cannot
// support — their data. Unless -force is set, the appended document's
// benchmark name set must equal the last entry's, so a renamed or dropped
// benchmark cannot silently corrupt the windowed gate's series.
//
// -compare-history FILE is the windowed gate itself (`make
// benchcheck-history`): the run on stdin is compared per benchmark against
// the median of the last -window (default 5) history entries — ns/op with
// the -threshold tolerance, allocs/op strictly. ns/op medians only include
// entries recorded at the same -benchtime as the current run (entries
// without a stamp count as "1s"): a 100-iteration QUICK run amortises
// warmup differently from a 1s run, so mixing them would bias the gate;
// allocs/op is benchtime-insensitive and always gates. With fewer than
// three entries the gate self-skips with exit status 0; it arms
// automatically as committed history accumulates.
//
// Output shape:
//
//	{
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",
//	  "benchmarks": {
//	    "BenchmarkRendezvousHot": {"runs": 45306, "ns_per_op": 24521,
//	      "b_per_op": 8096, "allocs_per_op": 157, "rows": 8}
//	  }
//	}
//
// Custom b.ReportMetric units (e.g. "rows", "instances/op") are included
// with their unit's leading path element as the key.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	mergePath := flag.String("merge", "", "carry forward unknown top-level keys from this existing JSON document")
	compareHistoryPath := flag.String("compare-history", "", "compare the run on stdin against the windowed history at this JSON-lines file and fail on regressions")
	appendPath := flag.String("append", "", "append the JSON document on stdin as one line of this JSON-lines history file")
	force := flag.Bool("force", false, "allow -append to record a benchmark set that differs from the history's last entry")
	threshold := flag.Float64("threshold", 0.25, "relative ns/op regression that fails -compare-history (0.25 = 25%)")
	window := flag.Int("window", 5, "number of trailing history entries -compare-history takes the median over")
	benchtime := flag.String("benchtime", "1s", "the -benchtime the run on stdin used; stamped into recordings, and -compare-history gates ns/op only against entries recorded at the same benchtime")
	flag.Parse()

	if *appendPath != "" {
		if err := appendHistory(*appendPath, os.Stdin, *force); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	meta := map[string]string{}
	benches := map[string]map[string]float64{}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if name, value, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(name, "Benchmark") {
			switch name {
			case "goos", "goarch", "cpu", "pkg":
				meta[name] = value
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		// "BenchmarkName-8  1234  56.7 ns/op  96 B/op  2 allocs/op ..."
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		runs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m := map[string]float64{"runs": runs}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			m[metricKey(fields[i+1])] = v
		}
		benches[name] = m
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *compareHistoryPath != "" {
		os.Exit(compareHistory(*compareHistoryPath, benches, *threshold, *window, *benchtime))
	}

	out := map[string]any{"benchmarks": benches, "benchtime": *benchtime}
	for _, k := range []string{"goos", "goarch", "cpu", "pkg"} {
		if meta[k] != "" {
			out[k] = meta[k]
		}
	}
	if *mergePath != "" {
		if err := mergeUnknownKeys(out, *mergePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// appendHistory validates the JSON document on r and appends it, compacted
// to a single line, to the JSON-lines history file at path — the
// benchmark-trajectory log windowed regression gates read. The document is
// parsed (not just copied) so a truncated or non-JSON stdin can never
// corrupt the committed history, and — unless force is set — its benchmark
// name set must equal the last entry's: the windowed-median gate is only
// meaningful over a consistent series, so a renamed or dropped benchmark
// must be an explicit decision (-force), not an accident.
func appendHistory(path string, r io.Reader, force bool) error {
	var doc map[string]any
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("append: stdin is not a JSON document: %w", err)
	}
	if !force {
		if err := checkSameBenchmarkSet(path, doc); err != nil {
			return err
		}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// mergeUnknownKeys copies top-level keys this run did not produce (recorded
// baselines, notes) from the JSON document at path into out. A missing file
// is not an error.
func mergeUnknownKeys(out map[string]any, path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var prev map[string]any
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("merge %s: %w", path, err)
	}
	for k, v := range prev {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return nil
}

// metricKey normalises a benchmark unit into a JSON key: "ns/op" →
// "ns_per_op", "B/op" → "b_per_op", "allocs/op" → "allocs_per_op",
// "instances/op" → "instances_per_op", bare custom units pass through.
func metricKey(unit string) string {
	key := strings.ToLower(unit)
	key = strings.ReplaceAll(key, "/", "_per_")
	return key
}

// benchmarkNames returns the sorted benchmark names of one history document.
func benchmarkNames(doc map[string]any) []string {
	benches, _ := doc["benchmarks"].(map[string]any)
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkSameBenchmarkSet refuses an -append whose benchmark name set differs
// from the last committed history entry (missing file or empty history is
// fine: the first entry defines the set).
func checkSameBenchmarkSet(path string, doc map[string]any) error {
	entries, err := readHistory(path)
	if errors.Is(err, fs.ErrNotExist) || (err == nil && len(entries) == 0) {
		return nil
	}
	if err != nil {
		return err
	}
	last := benchmarkNames(entries[len(entries)-1])
	next := benchmarkNames(doc)
	if len(last) == len(next) {
		same := true
		for i := range last {
			if last[i] != next[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	missing, added := diffSets(last, next)
	return fmt.Errorf("append: benchmark set differs from the last history entry (missing: %v, new: %v); the windowed gate needs a consistent series — re-run with -force if the change is intentional", missing, added)
}

// diffSets returns the elements of a not in b and of b not in a (both
// inputs sorted).
func diffSets(a, b []string) (onlyA, onlyB []string) {
	inB := make(map[string]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	inA := make(map[string]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	for _, x := range a {
		if !inB[x] {
			onlyA = append(onlyA, x)
		}
	}
	for _, x := range b {
		if !inA[x] {
			onlyB = append(onlyB, x)
		}
	}
	return onlyA, onlyB
}

// readHistory parses every line of the JSON-lines history file.
func readHistory(path string) ([]map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			return nil, fmt.Errorf("history %s line %d: %w", path, len(entries)+1, err)
		}
		entries = append(entries, doc)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// historyMetric extracts one benchmark metric from a history entry.
func historyMetric(doc map[string]any, bench, metric string) (float64, bool) {
	benches, _ := doc["benchmarks"].(map[string]any)
	m, _ := benches[bench].(map[string]any)
	v, ok := m[metric].(float64)
	return v, ok
}

// median returns the median of a non-empty slice (input is sorted in
// place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// compareHistory is the windowed regression gate (`make benchcheck-history`):
// the current run is compared per benchmark against the median of the last
// `window` committed history entries — ns/op with the relative threshold
// (medians absorb the single-run noise that makes one-shot ns comparisons
// advisory-only), allocs/op strictly (allocation counts are deterministic,
// so any increase over the windowed median is a real regression). With
// fewer than three history entries the gate self-skips (exit 0) with a
// notice: a median over one or two points is just a noisy point comparison,
// so the gate arms itself once the committed history is deep enough.
//
// ns/op medians are only taken over history entries recorded at the same
// -benchtime as the current run (entries without a stamp count as the "1s"
// default): a 100-iteration QUICK run amortises warmup differently from a
// 1s run, so mixing the two would bias the gate. allocs/op is
// benchtime-insensitive and gates against the full window, which keeps the
// QUICK CI job a real (bounded-time) blocker on the deterministic metric
// even while its ns comparisons have no same-benchtime history yet.
func compareHistory(path string, current map[string]map[string]float64, threshold float64, window int, benchtime string) int {
	entries, err := readHistory(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	const minEntries = 3
	if len(entries) < minEntries {
		fmt.Printf("benchjson: history %s has %d entries; the windowed gate needs >= %d — skipping (gate arms as history accumulates)\n",
			path, len(entries), minEntries)
		return 0
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: compare-history: no benchmark results on stdin")
		return 1
	}
	if window < 1 {
		window = 1
	}
	if window > len(entries) {
		window = len(entries)
	}
	tail := entries[len(entries)-window:]

	names := benchmarkNames(tail[len(tail)-1])
	regressions := 0
	nsSkipped := 0
	for _, name := range names {
		cur, ok := current[name]
		if !ok {
			fmt.Printf("?  %s: in history but not in this run\n", name)
			continue
		}
		for _, metric := range []string{"ns_per_op", "allocs_per_op"} {
			var series []float64
			for _, e := range tail {
				if metric == "ns_per_op" && entryBenchtime(e) != benchtime {
					continue // ns is only comparable at the same benchtime
				}
				if v, ok := historyMetric(e, name, metric); ok {
					series = append(series, v)
				}
			}
			now, haveNow := cur[metric]
			if len(series) < minEntries || !haveNow {
				if metric == "ns_per_op" && haveNow {
					nsSkipped++
				}
				continue // not enough windowed data for this benchmark yet
			}
			med := median(series)
			gate := med
			kind := "strict"
			if metric == "ns_per_op" {
				gate = med * (1 + threshold)
				kind = fmt.Sprintf("+%.0f%%", 100*threshold)
			}
			if now > gate {
				regressions++
				fmt.Printf("REGRESSION %s %s: median(%d) %g -> %g (gate %s)\n",
					name, metric, len(series), med, now, kind)
			} else {
				fmt.Printf("ok %s %s: median(%d) %g -> %g\n", name, metric, len(series), med, now)
			}
		}
	}
	if nsSkipped > 0 {
		fmt.Printf("benchjson: ns/op skipped for %d benchmark(s): fewer than %d history entries at benchtime %s\n", nsSkipped, minEntries, benchtime)
	}
	if regressions > 0 {
		fmt.Printf("benchjson: %d metric(s) regressed vs the %d-entry window of %s\n", regressions, window, path)
		return 1
	}
	fmt.Printf("benchjson: no regressions vs the %d-entry window of %s\n", window, path)
	return 0
}

// entryBenchtime returns a history entry's recorded -benchtime, defaulting
// to "1s" for entries written before the stamp existed.
func entryBenchtime(doc map[string]any) string {
	if bt, ok := doc["benchtime"].(string); ok && bt != "" {
		return bt
	}
	return "1s"
}
