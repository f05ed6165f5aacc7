package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/feasibility"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The serve workload drives a real rvserved process over loopback with one
// closed-loop client: one connection, one client process held to one core,
// each request sent when the previous reply has been read. The daemon is
// held to the same core, so every round trip is a wakeup on one CPU rather
// than a cross-CPU wakeup, whose cost on a shared virtual machine swings
// with the host's load; the other core is left to the harness. The daemon
// warm-starts from a seeded cache file (a snapshot plus a journal tail), so
// its set-up replays real records. The request sequence is generated up
// front from the seed with a fixed count — never a fixed duration — and
// records whether each point query is a cache hit (a repeat) or a miss (a
// first-time query: scalar walk, Put, journal append).

const (
	// warmSnapshot and warmJournal are the warm-start file's record
	// counts; the journal tail is a whole number of journal windows so
	// every record is on disk.
	warmSnapshot = 36000
	warmJournal  = 64 * cache.JournalWindow
	// repeatShare is the share of point queries that repeat an earlier
	// key. It stays well away from 1/2 so the median sits inside the hit
	// mode.
	repeatShare = 0.75
	// requestsPerSecond sizes the fixed request sequence from the run's
	// time budget; the driven daemons take most of the run.
	requestsPerSecond = 3000
	// serveLoads is how many fresh daemons each run drives through the
	// whole sequence; serveStarts is the total number of daemon starts
	// timed for setup_s. Every third start is driven, the others only
	// start and stop.
	serveLoads  = 3
	serveStarts = 3 * serveLoads
	// latencyBlock is how many consecutive requests each p50_ms block
	// holds.
	latencyBlock  = 1000
	daemonCache   = 1 << 17
	searchHorizon = 1e5 // rvserved's default /v1/search horizon
	pointRadius   = 0.25
)

// Request mix, as shares of the sequence. No request log of real traffic
// exists yet, so only the sweep share has a source: cmd/loadcheck, the
// repository's one existing load mix, sends 1 request in 20 as the bounded
// sweep {"axes":["v=0.25:0.75:0.25"],"samples":2} with one fixed seed —
// after the first, its cells are cache hits — and rendezvous queries
// otherwise. Search and feasibility queries have no recorded share; each
// gets the same 1 in 20, so rendezvous stays most of the mix. The traced
// run prints how far wall_s and p50_ms would move without each class
// (NOTES.md records the figures).
const (
	shareRendezvous  = 0.85
	shareSearch      = 0.05
	shareFeasibility = 0.05 // the rest, 1 in 20, are the bounded sweep
)

// sweepAxes and sweepRequestSamples are cmd/loadcheck's bounded sweep.
var sweepAxes = []string{"v=0.25:0.75:0.25"}

const sweepRequestSamples = 2

// pointQuery is one rendezvous or search instance a request can name.
type pointQuery struct {
	search bool
	in     sim.Instance // rendezvous
	target geom.Vec     // search
}

func (q pointQuery) key() cache.Key {
	if q.search {
		return cache.SearchKey("alg4", q.target, pointRadius, sim.Options{Horizon: searchHorizon})
	}
	return cache.RendezvousKey("alg4", q.in, sim.Options{Horizon: experiments.RendezvousHorizon(q.in)})
}

func (q pointQuery) simulate() (sim.Result, error) {
	if q.search {
		return sim.Search(algo.CumulativeSearch(), q.target, pointRadius, sim.Options{Horizon: searchHorizon})
	}
	return sim.Rendezvous(algo.CumulativeSearch(), q.in, sim.Options{Horizon: experiments.RendezvousHorizon(q.in)})
}

// Request classes.
const (
	classHit         = "hit"
	classMiss        = "miss"
	classFeasibility = "feasibility"
	classSweep       = "sweep"
)

// request is one HTTP request of the sequence.
type request struct {
	Path  string `json:"p"`
	Body  string `json:"b"`
	Class string `json:"c"`
	Query int    `json:"q"` // index into servePlan.queries; -1 for non-point requests
}

// servePlan is everything generated from the seed.
type servePlan struct {
	queries  []pointQuery
	warm     int // queries[:warm] are in the warm-start file
	results  []sim.Result
	requests []request
	hits     int // point queries that repeat a key the daemon holds
	// sweepHits is the cache hits of the sweep requests: every sweep after
	// the first finds all its cells cached.
	sweepHits int
}

func randomInstance(rng *rand.Rand) sim.Instance {
	chi := frame.CCW
	if rng.Intn(2) == 1 {
		chi = frame.CW
	}
	d := 0.5 + 1.5*rng.Float64()
	return sim.Instance{
		Attrs: frame.Attributes{V: 0.2 + 0.6*rng.Float64(), Tau: 1, Phi: 2 * math.Pi * rng.Float64(), Chi: chi},
		D:     geom.Polar(d, 2*math.Pi*rng.Float64()),
		R:     pointRadius,
	}
}

func randomQuery(rng *rand.Rand, search bool) pointQuery {
	if search {
		return pointQuery{search: true, target: geom.Polar(0.5+1.5*rng.Float64(), 2*math.Pi*rng.Float64())}
	}
	return pointQuery{in: randomInstance(rng)}
}

func (q pointQuery) request(class string, index int) request {
	var body any
	if q.search {
		body = struct {
			X float64 `json:"x"`
			Y float64 `json:"y"`
		}{q.target.X, q.target.Y}
		return request{Path: "/v1/search", Body: mustJSON(body), Class: class, Query: index}
	}
	a := q.in.Attrs
	body = struct {
		V   float64 `json:"v"`
		Tau float64 `json:"tau"`
		Phi float64 `json:"phi"`
		Chi int     `json:"chi"`
		DX  float64 `json:"dx"`
		DY  float64 `json:"dy"`
		R   float64 `json:"r"`
	}{a.V, a.Tau, a.Phi, int(a.Chi), q.in.D.X, q.in.D.Y, q.in.R}
	return request{Path: "/v1/rendezvous", Body: mustJSON(body), Class: class, Query: index}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of finite floats are marshalled
	}
	return string(b)
}

// sweepRequest is the body of one bounded /v1/sweep request.
type sweepRequest struct {
	Axes    []string `json:"axes"`
	Samples int      `json:"samples"`
	Seed    int64    `json:"seed"`
}

// planServe generates the warm set and the request sequence. Every point
// query is either a repeat of a key the daemon already holds (warm file or
// an earlier miss in the sequence) — a hit — or a fresh instance — a miss.
func planServe(seed int64, n int) *servePlan {
	rng := rand.New(rand.NewSource(seed))
	p := &servePlan{warm: warmSnapshot + warmJournal}
	for i := 0; i < p.warm; i++ {
		p.queries = append(p.queries, randomQuery(rng, rng.Float64() < shareSearch/(shareRendezvous+shareSearch)))
	}
	known := [2][]int{} // indices of keys the daemon holds, by [search]
	for i, q := range p.queries {
		known[b2i(q.search)] = append(known[b2i(q.search)], i)
	}
	// Every sweep request is the same body, its seed drawn from the run's.
	sweepBody := mustJSON(sweepRequest{Axes: sweepAxes, Samples: sweepRequestSamples, Seed: rng.Int63()})
	sweeps := 0
	for len(p.requests) < n {
		u := rng.Float64()
		switch {
		case u < shareRendezvous+shareSearch:
			search := u >= shareRendezvous
			if rng.Float64() < repeatShare {
				pool := known[b2i(search)]
				qi := pool[rng.Intn(len(pool))]
				p.requests = append(p.requests, p.queries[qi].request(classHit, qi))
				p.hits++
				continue
			}
			qi := len(p.queries)
			p.queries = append(p.queries, randomQuery(rng, search))
			known[b2i(search)] = append(known[b2i(search)], qi)
			p.requests = append(p.requests, p.queries[qi].request(classMiss, qi))
		case u < shareRendezvous+shareSearch+shareFeasibility:
			in := randomInstance(rng)
			a := in.Attrs
			if rng.Intn(4) == 0 {
				a.Tau = 0.5 + rng.Float64()
			}
			if rng.Intn(4) == 0 {
				a.V = 1
			}
			body := mustJSON(struct {
				V   float64 `json:"v"`
				Tau float64 `json:"tau"`
				Phi float64 `json:"phi"`
				Chi int     `json:"chi"`
			}{a.V, a.Tau, a.Phi, int(a.Chi)})
			p.requests = append(p.requests, request{Path: "/v1/feasibility", Body: body, Class: classFeasibility, Query: -1})
		default:
			if sweeps > 0 {
				p.sweepHits += sweepCells()
			}
			sweeps++
			p.requests = append(p.requests, request{Path: "/v1/sweep", Body: sweepBody, Class: classSweep, Query: -1})
		}
	}
	return p
}

// sweepCells is the number of instances, each one cache lookup, in the
// bounded sweep.
func sweepCells() int {
	g, err := sweep.ParseGrid(sweepAxes...)
	if err != nil {
		panic(err) // sweepAxes is a constant spec
	}
	return g.Size() * sweepRequestSamples
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// simulateQueries computes the results of queries[from:] on every CPU.
func (p *servePlan) simulateQueries(from int) error {
	res, err := sweep.RunSampled(len(p.queries)-from, func(i int, _ sampler.Draws) (sim.Result, error) {
		return p.queries[from+i].simulate()
	}, sweep.Options{})
	if err != nil {
		return err
	}
	p.results = append(p.results[:from], res...)
	return nil
}

// writeWarmFile writes the warm-start cache file: the first warmSnapshot
// records as a snapshot, the rest as its journal tail.
func (p *servePlan) writeWarmFile(path string) error {
	c := cache.New(daemonCache)
	for i := 0; i < warmSnapshot; i++ {
		c.Put(p.queries[i].key(), p.results[i])
	}
	if err := c.SaveAs(path); err != nil {
		return err
	}
	c, err := cache.Open(path, daemonCache)
	if err != nil {
		return err
	}
	for i := warmSnapshot; i < p.warm; i++ {
		c.Put(p.queries[i].key(), p.results[i])
	}
	if st := c.Stats(); st.Len != p.warm || st.Corrupt != 0 {
		return fmt.Errorf("warm file holds %d records (%d corrupt), want %d", st.Len, st.Corrupt, p.warm)
	}
	return nil
}

func (p *servePlan) writeRequests(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range p.requests {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveInputs are one run's generated inputs on disk.
type serveInputs struct {
	plan     *servePlan
	warmFile string // pristine warm-start file (plus .journal)
	reqFile  string
}

func prepareServe(e *env, n int) (*serveInputs, error) {
	plan := planServe(e.seed, n)
	if err := plan.simulateQueries(0); err != nil {
		return nil, err
	}
	in := &serveInputs{
		plan:     plan,
		warmFile: filepath.Join(e.scratch, "warm", "cache.jsonl"),
		reqFile:  filepath.Join(e.scratch, "requests.jsonl"),
	}
	if err := os.MkdirAll(filepath.Dir(in.warmFile), 0o755); err != nil {
		return nil, err
	}
	if err := plan.writeWarmFile(in.warmFile); err != nil {
		return nil, err
	}
	return in, plan.writeRequests(in.reqFile)
}

// daemon is one running rvserved process.
type daemon struct {
	cmd     *exec.Cmd
	dir     string // the daemon's copy of the warm-start file, removed when it exits
	base    string // http://host:port
	setup   time.Duration
	warm    int
	readers sync.WaitGroup // goroutines draining stdout and stderr
	gcMu    sync.Mutex
	gcCPU   []gcLine // gctrace lines, when tracing
}

type gcLine struct {
	at    time.Time
	cpuMS float64
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

// startDaemon copies the pristine warm-start file into its own directory
// and starts rvserved on it, returning once /healthz answers 200. setup is
// exec to that 200.
func startDaemon(e *env, in *serveInputs, name string, gctrace bool) (*daemon, error) {
	dir := filepath.Join(e.scratch, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cacheFile := filepath.Join(dir, "cache.jsonl")
	for _, suffix := range []string{"", ".journal"} {
		if err := copyFile(in.warmFile+suffix, cacheFile+suffix); err != nil {
			return nil, err
		}
	}
	// Write back every dirty page first, so no flush of earlier files lands
	// inside the timed start or the sequence that follows it.
	syscall.Sync()
	// Held to the client's core, the daemon's Go runtime sizes GOMAXPROCS
	// to that one CPU.
	argv, err := pinned(filepath.Join(e.bin, "rvserved"),
		"-addr", "127.0.0.1:0", "-cachefile", cacheFile, "-cachesize", fmt.Sprint(daemonCache), "-flush", "0")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = os.Environ()
	d := &daemon{cmd: cmd, dir: dir}
	var stderr io.ReadCloser
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
		if stderr, err = cmd.StderrPipe(); err != nil {
			return nil, err
		}
	} else {
		cmd.Stderr = os.Stderr
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if gctrace {
		d.readers.Add(1)
		go func() {
			defer d.readers.Done()
			d.readGCTrace(stderr)
		}()
	}
	sc := bufio.NewScanner(stdout)
	for d.base == "" && sc.Scan() {
		line := sc.Text()
		if _, after, ok := strings.Cut(line, " warm with "); ok {
			d.warm, _ = strconv.Atoi(strings.Fields(after)[0])
		}
		if _, after, ok := strings.Cut(line, "listening on "); ok {
			d.base = strings.TrimSpace(after)
		}
	}
	if d.base == "" {
		d.kill()
		return nil, fmt.Errorf("rvserved exited before listening: %v", sc.Err())
	}
	d.readers.Add(1)
	go func() {
		defer d.readers.Done()
		for sc.Scan() {
		}
	}()
	resp, err := httpClient.Get(d.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	d.setup = time.Since(start)
	if err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// readGCTrace collects the CPU milliseconds of each gctrace line
// ("gc N @Ts P%: a+b+c ms clock, a+b/c/d+e ms cpu, ...").
func (d *daemon) readGCTrace(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		_, after, ok := strings.Cut(line, " ms clock, ")
		if !ok {
			continue
		}
		cpu, _, _ := strings.Cut(after, " ms cpu")
		total := 0.0
		for _, f := range strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' }) {
			x, err := strconv.ParseFloat(f, 64)
			if err == nil {
				total += x
			}
		}
		d.gcMu.Lock()
		d.gcCPU = append(d.gcCPU, gcLine{time.Now(), total})
		d.gcMu.Unlock()
	}
}

// gcCPUSeconds sums the GC CPU of collections that ended in [from, to].
func (d *daemon) gcCPUSeconds(from, to time.Time) float64 {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	secs := 0.0
	for _, g := range d.gcCPU {
		if !g.at.Before(from) && !g.at.After(to) {
			secs += g.cpuMS / 1e3
		}
	}
	return secs
}

// peakRSSMB reads the daemon's high-water resident set from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// metricsDoc mirrors the parts of rvserved's GET /metrics the benchmark reads.
type metricsDoc struct {
	Counters map[string]struct {
		Total uint64 `json:"total"`
	} `json:"counters"`
	Runtime struct {
		TotalAlloc uint64 `json:"total_alloc_bytes"`
		NumGC      uint32 `json:"num_gc"`
	} `json:"runtime"`
	Cache cache.Stats `json:"cache"`
}

func (d *daemon) metrics() (metricsDoc, error) {
	var doc metricsDoc
	resp, err := httpClient.Get(d.base + "/metrics")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("/metrics answered %s", resp.Status)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// stop shuts the daemon down gracefully (SIGTERM: drain, final cache
// flush) and requires a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	d.readers.Wait()
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("rvserved shutdown: %w", err)
	}
	return os.RemoveAll(d.dir)
}

// kill ends a daemon whose state no longer matters.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.readers.Wait()
	d.cmd.Wait()
	os.RemoveAll(d.dir)
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// clientResult is what the client child writes after the sequence.
type clientResult struct {
	WallSec float64  `json:"wall_s"`
	LatNS   []int64  `json:"lat_ns"`
	Status  []int    `json:"status"`
	Bodies  []string `json:"bodies"`
	Spans   []tspan  `json:"spans,omitempty"`
}

// childClient sends the request file's sequence over one keep-alive
// connection, each request after the previous reply has been read. With
// -trace it also records a request span per request and, nested in it, the
// server span its elapsed_ms reports.
func childClient(base, reqFile, outFile string, trace bool) error {
	reqs, err := readRequests(reqFile)
	if err != nil {
		return err
	}
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	res := clientResult{
		LatNS:  make([]int64, len(reqs)),
		Status: make([]int, len(reqs)),
		Bodies: make([]string, len(reqs)),
	}
	if trace {
		res.Spans = make([]tspan, 0, 2*len(reqs))
	}
	fmt.Println("ready")
	t0 := time.Now()
	for i, r := range reqs {
		start := time.Since(t0)
		resp, err := client.Post(base+r.Path, "application/json", strings.NewReader(r.Body))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			res.Status[i] = resp.StatusCode
		}
		end := time.Since(t0)
		if err != nil {
			// A transport failure (the daemon crashed, say) is a failed
			// request with status 0, counted against the attempts.
			res.Status[i], body = 0, []byte(err.Error())
		}
		res.LatNS[i] = int64(end - start)
		res.Bodies[i] = string(body)
		if trace {
			parent := len(res.Spans)
			res.Spans = append(res.Spans, tspan{Name: "client.request", Op: i, Start: start, End: end, Parent: -1})
			var e struct {
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			if json.Unmarshal(body, &e) == nil && e.ElapsedMS > 0 {
				// Only the duration is reported; the placement inside the
				// request span is centred.
				d := time.Duration(e.ElapsedMS * 1e6)
				mid := (start + end) / 2
				res.Spans = append(res.Spans, tspan{Name: "rvserved.server", Op: i, Start: mid - d/2, End: mid - d/2 + d, Parent: parent})
			}
		}
	}
	res.WallSec = time.Since(t0).Seconds()
	f, err := os.Create(outFile)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRequests(path string) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reqs []request
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r request
		if err := dec.Decode(&r); err == io.EOF {
			return reqs, nil
		} else if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
}

// load is one daemon driven through the whole sequence.
type load struct {
	d      *daemon // nil when the daemon did not start
	res    clientResult
	before metricsDoc
	after  metricsDoc
	rssMB  float64
	cpuS   float64
	window [2]time.Time
	crash  string // how the daemon or the client failed; "" when both finished cleanly
}

// runLoad starts a fresh daemon, drives the sequence through the client
// child held to one core, scrapes /metrics around it, and stops the daemon.
// A daemon that fails to start, stops answering or exits uncleanly is
// reported in load.crash with whatever responses the client recorded; the
// error is for the benchmark's own failures.
func runLoad(e *env, in *serveInputs, name string, trace bool) (*load, error) {
	l := &load{}
	d, err := startDaemon(e, in, name, trace)
	if err != nil {
		l.crash = fmt.Sprintf("rvserved did not start: %v", err)
		return l, nil
	}
	l.d = d
	defer func() {
		if d.cmd.ProcessState == nil {
			d.kill()
		}
	}()
	// gone ends a daemon that stopped answering and records how it ended.
	gone := func(what string, err error) (*load, error) {
		d.kill()
		l.crash = fmt.Sprintf("rvserved failed %s (%v); it ended with %v", what, err, d.cmd.ProcessState)
		return l, nil
	}
	if l.before, err = d.metrics(); err != nil {
		return gone("/metrics before the sequence", err)
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return gone("a CPU-time read", err)
	}
	outFile := filepath.Join(e.scratch, name+".responses.json")
	args := []string{"client", "-addr", d.base, "-requests", in.reqFile, "-out", outFile}
	if trace {
		args = append(args, "-trace")
	}
	l.window[0] = time.Now()
	run, err := runClient(e, args)
	if err != nil {
		return nil, err
	}
	if run.crash != "" {
		l.crash = "client crashed: " + run.crash
		return l, nil
	}
	l.window[1] = time.Now()
	b, err := os.ReadFile(outFile)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(outFile); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &l.res); err != nil {
		return nil, err
	}
	// A daemon that died during the sequence left status-0 responses
	// behind; it no longer answers /metrics.
	if l.after, err = d.metrics(); err != nil {
		return gone("/metrics after the sequence", err)
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return gone("a CPU-time read", err)
	}
	l.cpuS = cpu1 - cpu0
	if l.rssMB, err = d.peakRSSMB(); err != nil {
		return gone("a /proc read", err)
	}
	if err := d.stop(); err != nil {
		l.crash = err.Error()
	}
	return l, nil
}

// runClient runs the client child pinned to the serve CPU with one Go
// processor, so the load generator holds one core.
func runClient(e *env, args []string) (childRun, error) {
	argv, err := pinned(e.child(args...)...)
	if err != nil {
		return childRun{}, err
	}
	return runChild(argv, []string{"GOMAXPROCS=1"})
}

// pinned prefixes a command line with taskset, holding the process and
// every thread it starts to serveCPU. Without taskset the run fails rather
// than measure unpinned processes.
func pinned(argv ...string) ([]string, error) {
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return nil, fmt.Errorf("the serve client and daemon must be pinned to one core: %w", err)
	}
	return append([]string{taskset, "-c", fmt.Sprint(serveCPU())}, argv...), nil
}

// serveCPU is the core the client and the daemon share: the last one.
func serveCPU() int { return runtime.NumCPU() - 1 }

// countLoad adds one driven daemon's requests to the attempts and its failed
// ones — a non-200, a wrong answer, or every request a crash left without a
// verifiable answer — to the failures. It reports whether the load finished
// cleanly, so its measurements may enter the medians.
func countLoad(plan *servePlan, name string, l *load, out *outcome) (bool, error) {
	out.attempted += len(plan.requests)
	if l.crash != "" {
		out.fail("%s: %s", name, l.crash)
	}
	if len(l.res.Status) != len(plan.requests) {
		// The client recorded nothing: no request has a verified answer.
		out.failed += len(plan.requests)
		return false, nil
	}
	failed, err := verifyServe(plan, l.res, out)
	if err != nil {
		return false, err
	}
	if l.crash != "" {
		failed = max(failed, 1)
	}
	out.failed += failed
	return l.crash == "", nil
}

// verifyServe checks every response against an in-process recomputation
// and returns the number of failed requests.
func verifyServe(plan *servePlan, res clientResult, out *outcome) (int, error) {
	if err := plan.simulateQueries(len(plan.results)); err != nil {
		return 0, err
	}
	failed := 0
	bad := func(i int, format string, args ...any) {
		failed++
		if failed <= 5 {
			out.fail("request %d (%s %s): %s", i, plan.requests[i].Path, plan.requests[i].Class, fmt.Sprintf(format, args...))
		}
	}
	sweeps := map[string]*experiments.GridResult{}
	for i, r := range plan.requests {
		if res.Status[i] != http.StatusOK {
			bad(i, "status %d: %s", res.Status[i], strings.TrimSpace(res.Bodies[i]))
			continue
		}
		body := []byte(res.Bodies[i])
		switch r.Class {
		case classHit, classMiss:
			want := expectedPoint(plan.queries[r.Query], plan.results[r.Query])
			var got simResponse
			if err := strictDecode(body, &got); err != nil {
				bad(i, "%v", err)
				continue
			}
			got.ElapsedMS = 0
			if got != want {
				bad(i, "response %+v, recomputed %+v", got, want)
			}
		case classFeasibility:
			if want := expectedFeasibility(r.Body); !bytes.Equal(body, want) {
				bad(i, "response %s, recomputed %s", body, want)
			}
		case classSweep:
			want, ok := sweeps[r.Body]
			var req sweepRequest
			if err := json.Unmarshal([]byte(r.Body), &req); err != nil {
				return 0, err
			}
			if !ok {
				var err error
				want, err = experiments.SweepGrid(req.Axes, "", experiments.Config{Seed: req.Seed, Samples: req.Samples})
				if err != nil {
					return 0, fmt.Errorf("sweep recomputation: %w", err)
				}
				sweeps[r.Body] = want
			}
			var got struct {
				experiments.GridResult
				Seed      int64   `json:"seed"`
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			if err := strictDecode(body, &got); err != nil {
				bad(i, "%v", err)
				continue
			}
			if got.Seed != req.Seed || !reflect.DeepEqual(&got.GridResult, want) {
				bad(i, "sweep cells differ from the scalar recomputation")
			}
		}
	}
	return failed, nil
}

// simResponse mirrors rvserved's point-query response.
type simResponse struct {
	Met       bool    `json:"met"`
	Time      float64 `json:"time"`
	Gap       float64 `json:"gap"`
	DistanceA float64 `json:"distance_a"`
	DistanceB float64 `json:"distance_b"`
	Intervals int     `json:"intervals"`
	Horizon   float64 `json:"horizon"`
	Algorithm string  `json:"algorithm"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func expectedPoint(q pointQuery, r sim.Result) simResponse {
	horizon := searchHorizon
	if !q.search {
		horizon = experiments.RendezvousHorizon(q.in)
	}
	return simResponse{Met: r.Met, Time: r.Time, Gap: r.Gap, DistanceA: r.DistanceA, DistanceB: r.DistanceB,
		Intervals: r.Intervals, Horizon: horizon, Algorithm: "alg4"}
}

// expectedFeasibility renders the Theorem 4 classification of a
// feasibility request the way rvserved encodes it.
func expectedFeasibility(reqBody string) []byte {
	var req struct {
		V, Tau, Phi float64
		Chi         float64
	}
	if err := json.Unmarshal([]byte(reqBody), &req); err != nil {
		return nil
	}
	in, err := experiments.GridInstance([]string{"v", "tau", "phi", "chi"}, []float64{req.V, req.Tau, req.Phi, req.Chi})
	if err != nil {
		return nil
	}
	verdict := feasibility.Classify(in.Attrs)
	reasons := make([]string, len(verdict.Reasons))
	for i, r := range verdict.Reasons {
		reasons[i] = r.String()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.Encode(struct {
		Feasible  bool             `json:"feasible"`
		Reasons   []string         `json:"reasons"`
		Algorithm string           `json:"algorithm"`
		Attrs     frame.Attributes `json:"attributes"`
	}{verdict.Feasible, reasons, feasibility.Recommend(in.Attrs).String(), in.Attrs})
	return buf.Bytes()
}

func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// blockMedians splits xs into consecutive blocks of n and returns each
// whole block's median.
func blockMedians(xs []float64, n int) []float64 {
	var meds []float64
	for i := 0; i+n <= len(xs); i += n {
		meds = append(meds, median(xs[i:i+n]))
	}
	return meds
}

// serveRequests is the fixed sequence length for a run's time budget.
func serveRequests(seconds int) int { return requestsPerSecond * seconds }

func runServe(e *env) (*outcome, error) {
	out := newOutcome()
	in, err := prepareServe(e, serveRequests(e.seconds))
	if err != nil {
		return nil, err
	}
	plan := in.plan

	// Every third start drives the sequence; the rest only start and stop.
	// A start-only daemon is one attempt.
	var setups, walls, lats, blockP50, rss []float64
	driven := 0
	for i := 0; i < serveStarts; i++ {
		name := fmt.Sprintf("daemon %d", i)
		if i%(serveStarts/serveLoads) == 0 {
			driven++
			l, err := runLoad(e, in, fmt.Sprintf("daemon-%d", i), false)
			if err != nil {
				return nil, err
			}
			clean, err := countLoad(plan, name, l, out)
			if err != nil {
				return nil, err
			}
			if !clean {
				continue
			}
			if l.d.warm != plan.warm {
				out.fail("%s warm-started with %d records, want %d", name, l.d.warm, plan.warm)
			}
			if l.after.Cache.Corrupt != 0 {
				out.fail("%s: cache.corrupt = %d after the warm start, want 0", name, l.after.Cache.Corrupt)
			}
			if hits, want := l.after.Cache.Hits-l.before.Cache.Hits, plan.hits+plan.sweepHits; hits != uint64(want) {
				out.fail("%s: %d cache hits, the generator planned %d", name, hits, want)
			}
			setups = append(setups, l.d.setup.Seconds())
			walls = append(walls, l.res.WallSec)
			rss = append(rss, l.rssMB)
			seq := make([]float64, len(l.res.LatNS))
			for j, ns := range l.res.LatNS {
				seq[j] = float64(ns) / 1e6
			}
			lats = append(lats, seq...)
			blockP50 = append(blockP50, blockMedians(seq, latencyBlock)...)
			continue
		}
		out.attempted++
		d, err := startDaemon(e, in, fmt.Sprintf("daemon-%d", i), false)
		if err != nil {
			out.failed++
			out.fail("%s did not start: %v", name, err)
			continue
		}
		setups = append(setups, d.setup.Seconds())
		d.kill()
	}
	// The host's interference comes in episodes of seconds that slow every
	// request of a sequence alike, so the time figures average over the
	// whole driven time: a median over three sequences would follow
	// whichever sequence an episode fell in.
	wall := mean(walls)
	out.set("wall_s", "s", wall)
	out.set("ops_per_s", "1/s", float64(len(plan.requests))/wall)
	out.set("p50_ms", "ms", mean(blockP50))
	out.set("peak_rss_mb", "MB", median(rss))
	out.set("setup_s", "s", median(setups))

	fmt.Printf("serve: %d requests per daemon (%d planned hits), %d daemons driven, closed loop, 1 client process and the daemon pinned to CPU %d, 1 connection\n",
		len(plan.requests), plan.hits, driven, serveCPU())
	fmt.Printf("  wall_s  mean %.4f s over %d sequences: %s\n", wall, len(walls), joinFloats(walls, "%.4f"))
	fmt.Printf("  latency p50 %.4f ms (mean of the medians of %d blocks of %d requests), pooled p50 %.4f ms, p99 %.4f ms over %d requests\n",
		mean(blockP50), len(blockP50), latencyBlock, analysis.Quantile(lats, 0.5), analysis.Quantile(lats, 0.99), len(lats))
	fmt.Printf("  setup_s median %.4f s over %d daemon starts (exec to /healthz 200, replaying %d warm records): %s\n",
		median(setups), len(setups), plan.warm, joinFloats(setups, "%.3f"))
	fmt.Println("  every 200 checked against an in-process recomputation (GridInstance, RendezvousHorizon, sim)")
	return out, nil
}
