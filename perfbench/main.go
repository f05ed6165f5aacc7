// Command perfbench is the repository's end-to-end benchmark. It runs three
// workloads from outside the program — the paper's table suite, a seeded
// Monte-Carlo parameter sweep, and the rvserved daemon under a closed-loop
// client — checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload tables|sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of the workload;
// with --trace 1 it carries the per-layer metrics and the ladder (layer
// self-times against the end-to-end wall). NOTES.md explains the workloads,
// the metrics and which layer metric should move which end-to-end metric.
//
// The timed work runs in child processes (this binary re-executed with the
// "child" subcommand, or the rvserved daemon), so setup time and peak
// memory are those of the process doing the work, measured from outside.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
)

// env is what every workload needs to know about its surroundings.
type env struct {
	root    string // repository checkout
	bin     string // directory holding the built binaries
	self    string // this executable, re-run for child processes
	seed    int64
	seconds int
	scratch string // per-run scratch directory under bin
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a workload's attempts, failures and metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// fail records a failed check; the operation count it covers is counted
// against the attempts by the caller.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: tables, sweep or serve")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 10, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		root     = flag.String("root", ".", "repository checkout the binaries were built from")
		bin      = flag.String("bin", ".bench_build", "directory holding the built rvserved binary")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, root, bin string) error {
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(bin, "rvserved")); err != nil {
		return fmt.Errorf("rvserved binary not built: %w", err)
	}
	scratch, err := os.MkdirTemp(bin, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{root: root, bin: bin, self: self, seed: seed, seconds: seconds, scratch: scratch}

	var out *outcome
	switch {
	case workload != "tables" && workload != "sweep" && workload != "serve":
		return fmt.Errorf("unknown --workload %q (want tables, sweep or serve)", workload)
	case trace == 1:
		out, err = traceRun(e, workload)
	case workload == "tables":
		out, err = runTables(e)
	case workload == "sweep":
		out, err = runSweep(e)
	default:
		out, err = runServe(e)
	}
	if err != nil {
		return err
	}
	// The known defect is probed on every run and reported by name. Running
	// out of memory is its recorded outcome while the defect stands; only a
	// wrong answer (met > 0 on an infeasible cell) fails the checks.
	if err := probeKnownDefect(e, out); err != nil {
		return err
	}
	return emit(os.Stdout, out)
}

// emit prints the human-readable summary and then the result line. A
// metric without a finite value — every operation behind it crashed — is
// left out of the result and fails the checks.
func emit(w io.Writer, out *outcome) error {
	names := make([]string, 0, len(out.metrics))
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.fail("metric %s has no measurement", name)
			delete(out.metrics, name)
			continue
		}
		names = append(names, name)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.metrics[name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", out.attempted, out.failed)
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// childRun is one finished child process: how long it took from exec to
// its "ready" line, what it printed after that, its peak RSS, and — when it
// crashed — how.
type childRun struct {
	setup  time.Duration
	output []byte
	rssMB  float64
	crash  string // a non-zero exit, a missing ready line or a timeout; "" when the child succeeded
}

// childTimeout bounds every child process; a hung child is killed.
const childTimeout = 150 * time.Second

// child is the command line of this binary's child subcommand.
func (e *env) child(args ...string) []string {
	return append([]string{e.self, "child"}, args...)
}

// runChild executes a child command line and waits for it. The child
// prints "ready" once its set-up is done; everything after that line is
// returned. A child that crashes is reported in childRun.crash, for the
// caller to count against the attempts; the error is for a child that could
// not be started at all.
func runChild(argv, extraEnv []string) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	r := bufio.NewReader(stdout)
	line, rerr := r.ReadString('\n')
	run := childRun{setup: time.Since(start)}
	if rerr == nil && line == "ready\n" {
		run.output, rerr = io.ReadAll(r)
	} else {
		if rerr == nil {
			rerr = fmt.Errorf("expected ready line, got %q", line)
		}
		io.Copy(io.Discard, r)
	}
	werr := cmd.Wait()
	switch {
	case ctx.Err() != nil:
		run.crash = fmt.Sprintf("killed after %s", childTimeout)
	case werr != nil:
		run.crash = werr.Error()
	case rerr != nil:
		run.crash = rerr.Error()
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}

// childMain dispatches the child subcommands.
func childMain(args []string) error {
	if len(args) == 0 {
		return errors.New("missing child subcommand")
	}
	fs := flag.NewFlagSet("child "+args[0], flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	setupOnly := fs.Bool("setup-only", false, "exit right after set-up")
	reqFile := fs.String("requests", "", "client: request file")
	outFile := fs.String("out", "", "client: response file")
	addr := fs.String("addr", "", "client: daemon base URL")
	trace := fs.Bool("trace", false, "client: record spans")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch args[0] {
	case "tables":
		return childTables(*seed, *setupOnly)
	case "sweep":
		return childSweep(*seed, *setupOnly)
	case "client":
		return childClient(*addr, *reqFile, *outFile, *trace)
	case "probe":
		return childProbe()
	}
	return fmt.Errorf("unknown child subcommand %q", args[0])
}

func median(xs []float64) float64 { return analysis.Quantile(xs, 0.5) }

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spread formats the quartile spread of xs as a share of the median.
func spread(xs []float64) string {
	s := analysis.Summarize(xs)
	if s.Median == 0 || s.N < 2 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*(s.Q75-s.Q25)/s.Median)
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
