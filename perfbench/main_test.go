package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestMain lets the test binary stand in for the processes the benchmark
// starts: "child ..." runs a child subcommand, as the benchmark binary
// does, and PERFBENCH_FAKE_DAEMON=1 makes it a daemon that answers
// /healthz and /metrics but exits 2 on its first request.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("PERFBENCH_FAKE_DAEMON") == "1" {
		fakeDaemon()
	}
	os.Exit(m.Run())
}

func fakeDaemon() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(1)
	}
	fmt.Printf("rvserved: listening on http://%s\n", ln.Addr())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) })
	mux.HandleFunc("POST /", func(http.ResponseWriter, *http.Request) { os.Exit(2) })
	http.Serve(ln, mux)
	os.Exit(1)
}

// lastResult runs emit and decodes the result line it ends with.
func lastResult(t *testing.T, out *outcome) result {
	t.Helper()
	var buf bytes.Buffer
	if err := emit(&buf, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// A tables or sweep process that exits 2 is a failed attempt: the run goes
// on and still prints its result line, with correct=false.
func TestCrashedChildIsFailedAttempt(t *testing.T) {
	crash := filepath.Join(t.TempDir(), "crash")
	script := "#!/bin/sh\necho ready\ncase \" $* \" in *\" -setup-only \"*) exit 0;; esac\nexit 2\n"
	if err := os.WriteFile(crash, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*env) (*outcome, error){"tables": runTables, "sweep": runSweep} {
		t.Run(name, func(t *testing.T) {
			out, err := run(&env{self: crash, seed: 1, seconds: 2})
			if err != nil {
				t.Fatal(err)
			}
			res := lastResult(t, out)
			if res.Correct || res.Failed == 0 || res.Attempted <= res.Failed {
				t.Fatalf("result %+v: want correct=false, failed > 0, and the set-up-only starts attempted too", res)
			}
		})
	}
}

// A daemon that exits in the middle of the sequence leaves its requests
// unanswered; they count as failed instead of ending the run.
func TestDaemonCrashCountsRequests(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	script := fmt.Sprintf("#!/bin/sh\nPERFBENCH_FAKE_DAEMON=1 exec '%s' \"$@\"\n", self)
	if err := os.WriteFile(filepath.Join(dir, "rvserved"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	plan := planServe(1, 20)
	plan.results = make([]sim.Result, len(plan.queries)) // nothing to verify against: no 200 arrives
	in := &serveInputs{plan: plan, warmFile: filepath.Join(dir, "warm.jsonl"), reqFile: filepath.Join(dir, "requests.jsonl")}
	for _, f := range []string{in.warmFile, in.warmFile + ".journal"} {
		if err := os.WriteFile(f, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := plan.writeRequests(in.reqFile); err != nil {
		t.Fatal(err)
	}
	e := &env{bin: dir, self: self, seed: 1, seconds: 1, scratch: dir}
	l, err := runLoad(e, in, "crash", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(l.crash, "exit status 2") {
		t.Fatalf("crash = %q, want the daemon's exit status 2", l.crash)
	}
	out := newOutcome()
	clean, err := countLoad(plan, "daemon 0", l, out)
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Fatal("a crashed load counted as clean")
	}
	res := lastResult(t, out)
	if res.Correct || res.Attempted != 20 || res.Failed != 20 {
		t.Fatalf("result %+v: want correct=false with 20 of 20 requests failed", res)
	}
}
