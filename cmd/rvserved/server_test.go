package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// newTestServer builds a server on the given cache with a fresh registry and
// pool, wrapped in an httptest server. sweeps is the admission capacity.
func newTestServer(t *testing.T, c *cache.Cache, sweeps int) (*server, *httptest.Server) {
	t.Helper()
	pool := sweep.NewPool(2)
	t.Cleanup(pool.Close)
	s := newServer(c, pool, telemetry.NewRegistry(0), sweeps, 512, 4, 0)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// serve answers one POST in-process, without a listener.
func serve(s *server, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, data
}

func TestRendezvousEndpoint(t *testing.T) {
	_, ts := newTestServer(t, cache.New(0), 1)
	status, body := post(t, ts, "/v1/rendezvous", `{"v":0.5,"dx":1,"dy":0,"r":0.25}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var res simResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Errorf("default feasible instance did not meet: %+v", res)
	}
	if res.Algorithm != "alg4" {
		t.Errorf("algorithm %q, want alg4", res.Algorithm)
	}
	if res.Time <= 0 || res.Time > res.Horizon {
		t.Errorf("meeting time %v outside (0, horizon %v]", res.Time, res.Horizon)
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, cache.New(0), 1)
	status, body := post(t, ts, "/v1/search", `{"x":1.5,"y":0.5,"r":0.25,"algo":"universal"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var res simResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Algorithm != "alg7" {
		t.Errorf("search result %+v, want met via alg7", res)
	}
}

func TestFeasibilityEndpoint(t *testing.T) {
	_, ts := newTestServer(t, cache.New(0), 1)

	status, body := post(t, ts, "/v1/feasibility", `{"v":0.5}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var res struct {
		Feasible  bool     `json:"feasible"`
		Reasons   []string `json:"reasons"`
		Algorithm string   `json:"algorithm"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || len(res.Reasons) == 0 {
		t.Errorf("v=0.5 should be feasible with reasons, got %+v", res)
	}

	// The perfectly symmetric point: v=1, tau=1, phi=0, same chirality.
	status, body = post(t, ts, "/v1/feasibility", `{"v":1,"tau":1,"phi":0,"chi":1}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("symmetric instance classified feasible: %+v", res)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, cache.New(0), 1)
	cases := []struct {
		path, body string
	}{
		{"/v1/rendezvous", `{"nope":1}`},               // unknown field
		{"/v1/rendezvous", `{"v":-1}`},                 // invalid speed
		{"/v1/rendezvous", `{"d":1,"dx":2}`},           // d vs dx/dy conflict
		{"/v1/rendezvous", `{"algo":"quantum"}`},       // unknown algorithm
		{"/v1/sweep", `{}`},                            // axes required
		{"/v1/sweep", `{"axes":["v=zero:1:1"]}`},       // malformed axis
		{"/v1/sweep", `{"axes":["v=0.01:1:0.001"]}`},   // budget exceeded
		{"/v1/sweep", `{"axes":["v=1"],"samples":-1}`}, // negative samples
	}
	for _, tc := range cases {
		status, body := post(t, ts, tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d (body %s), want 400", tc.path, tc.body, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s %s: error body %q not a JSON error", tc.path, tc.body, body)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/rendezvous"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/rendezvous: status %d, want 405", resp.StatusCode)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, cache.New(0), 1)
	status, body := post(t, ts, "/v1/sweep",
		`{"axes":["v=0.25:0.75:0.25","d=1:2:1"],"algo":"search","samples":2,"seed":7}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var res struct {
		Axes      []string `json:"axes"`
		Algorithm string   `json:"algorithm"`
		Points    int      `json:"points"`
		Samples   int      `json:"samples"`
		Seed      int64    `json:"seed"`
		Cells     []struct {
			Point []float64 `json:"point"`
			Met   int       `json:"met"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Points != 6 || len(res.Cells) != 6 {
		t.Fatalf("grid size %d/%d cells, want 6", res.Points, len(res.Cells))
	}
	if res.Algorithm != "alg4" || res.Samples != 2 || res.Seed != 7 {
		t.Errorf("sweep meta %+v, want alg4/2 samples/seed 7", res)
	}
	for _, cell := range res.Cells {
		if cell.Met != 2 {
			t.Errorf("cell %v met %d/2 samples; feasible grid should always meet", cell.Point, cell.Met)
		}
	}
	if st := s.cache.Stats(); st.Lookups == 0 {
		t.Errorf("sweep did not read through the cache: %+v", st)
	}
	// The server batches every sweep: the kernel telemetry must show
	// rows amortizing multiple lanes each.
	rows, lanes := s.batchRows.Total(), s.batchLanes.Total()
	if rows == 0 || lanes == 0 {
		t.Errorf("batch telemetry empty after a batched sweep: rows=%d lanes=%d", rows, lanes)
	}
	if lanes < rows {
		t.Errorf("batch.lanes (%d) < batch.rows (%d): rows must hold at least one lane", lanes, rows)
	}
}

// TestSweepJobBudget: /v1/sweep admits a sweep of exactly the per-request
// job budget and rejects one job more, and a grid past 2⁴⁰ points is
// rejected even when the budget alone would admit it.
func TestSweepJobBudget(t *testing.T) {
	unbounded := newServer(cache.New(0), nil, telemetry.NewRegistry(0), 1, math.MaxInt, 4, 0)
	huge := `{"axes":["v=1:1100:1","d=1:1100:1","r=1:1100:1","phi=1:1100:1"]}` // 1100⁴ > 2⁴⁰ points
	if status, body := serve(unbounded, "/v1/sweep", huge); status != http.StatusBadRequest {
		t.Errorf("grid of 1100⁴ points under an unbounded budget: status %d (body %s), want 400", status, body)
	}

	pool := sweep.NewPool(2)
	t.Cleanup(pool.Close)
	s := newServer(cache.New(0), pool, telemetry.NewRegistry(0), 1, 6, 4, 0)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"axes":["v=0.25:0.75:0.25"],"samples":2}`, http.StatusOK},                        // 3 × 2 = 6 jobs: the budget
		{`{"axes":["v=0.25:0.75:0.25","d=1,2"]}`, http.StatusOK},                            // 6 points × 1
		{`{"axes":["v=0.2,0.3,0.4,0.5,0.6,0.7,0.8"]}`, http.StatusBadRequest},               // 7 jobs
		{`{"axes":["v=0.25:0.75:0.25"],"samples":3}`, http.StatusBadRequest},                // 9 jobs
		{`{"axes":["v=0.25:1:0.25"],"samples":4611686018427387904}`, http.StatusBadRequest}, // product wraps int
	} {
		if status, body := serve(s, "/v1/sweep", tc.body); status != tc.want {
			t.Errorf("POST /v1/sweep %s: status %d (body %s), want %d", tc.body, status, body, tc.want)
		}
	}
}

// TestSweepMonitorRetainsNoDurations: the daemon's process-lifetime
// monitor streams job durations into telemetry and keeps none itself, so
// serving sweeps does not grow memory, while sweep.jobs counts every job.
func TestSweepMonitorRetainsNoDurations(t *testing.T) {
	s, ts := newTestServer(t, cache.New(0), 1)
	jobs := 0
	for _, body := range []string{
		`{"axes":["v=0.25:0.75:0.25","d=1:2:1"],"samples":2,"seed":1}`,
		`{"axes":["v=0.5"],"samples":8,"seed":2}`,
		`{"axes":["v=0.25:0.75:0.25","d=1:2:1"],"samples":2,"seed":1,"workers":2}`,
	} {
		status, data := post(t, ts, "/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("POST /v1/sweep %s: status %d, body %s", body, status, data)
		}
		var res struct {
			Points  int `json:"points"`
			Samples int `json:"samples"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		jobs += res.Points * res.Samples
	}
	if n := len(s.mon.Durations()); n != 0 {
		t.Errorf("server monitor retains %d per-job durations, want 0", n)
	}
	if got := s.reg.Counter("sweep.jobs").Total(); got != uint64(jobs) {
		t.Errorf("sweep.jobs = %d, want %d", got, jobs)
	}
	if done, total := s.mon.Progress(); done != int64(jobs) || total != int64(jobs) {
		t.Errorf("monitor progress %d/%d, want %d/%d", done, total, jobs, jobs)
	}
}

// TestSweepAdmission429 saturates the sweep house and checks the overflow
// answer: 429, Retry-After, JSON error, and the rejection counter.
func TestSweepAdmission429(t *testing.T) {
	s, ts := newTestServer(t, cache.New(0), 1)
	// Occupy the single admission slot as a long-running sweep would.
	s.sweepSem <- struct{}{}
	defer func() { <-s.sweepSem }()

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		bytes.NewReader([]byte(`{"axes":["v=0.25:0.5:0.25"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body not a JSON error: %v %q", err, e.Error)
	}
	if got := s.rejected.Total(); got != 1 {
		t.Errorf("sweep.rejected = %d, want 1", got)
	}
}

// TestConcurrentIdenticalQueriesDedup fires bursts of identical cold queries
// and checks the singleflight collapsed at least one burst: Dedups > 0 and
// the flight's followers all got the leader's result.
func TestConcurrentIdenticalQueriesDedup(t *testing.T) {
	s, ts := newTestServer(t, cache.New(0), 1)
	const clients = 16
	// A mirrored (infeasible) instance walks the whole horizon: with χ = −1
	// and φ = 0, R′ runs R's path mirrored across the x-axis from (1, dy),
	// so the robots stay at least 1 apart. Its arcs turn at opposite ω, so
	// every arc interval runs the safe advance and the simulation takes
	// several ms — plenty for concurrent requests to land while the leader
	// is still computing. (The χ = +1 twin takes the twin walk, which is
	// too quick to overlap reliably.) Each attempt queries a fresh key
	// (distinct dy), so every burst starts cold; one overlapping pair
	// anywhere is enough.
	for attempt := 0; attempt < 20; attempt++ {
		body := fmt.Sprintf(`{"v":1,"tau":1,"phi":0,"chi":-1,"dx":1,"dy":0.0%d,"horizon":10000}`, attempt+1)
		var wg sync.WaitGroup
		var mu sync.Mutex
		gaps := make(map[float64]int)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, data := post(t, ts, "/v1/rendezvous", body)
				if status != http.StatusOK {
					t.Errorf("status %d: %s", status, data)
					return
				}
				var res simResponse
				if err := json.Unmarshal(data, &res); err != nil {
					t.Error(err)
					return
				}
				if res.Met {
					t.Errorf("symmetric instance met: %+v", res)
				}
				mu.Lock()
				gaps[res.Gap]++
				mu.Unlock()
			}()
		}
		wg.Wait()
		if len(gaps) != 1 {
			t.Fatalf("identical queries returned %d distinct horizon gaps: %v", len(gaps), gaps)
		}
		if st := s.cache.Stats(); st.Dedups > 0 {
			if st.Hits+st.Misses != st.Lookups {
				t.Fatalf("incoherent stats under load: %+v", st)
			}
			return
		}
	}
	t.Fatalf("no dedup across 20 cold bursts of %d identical queries: %+v", clients, s.cache.Stats())
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, cache.New(0), 1)
	post(t, ts, "/v1/rendezvous", `{"v":0.5}`)
	post(t, ts, "/v1/rendezvous", `{"v":0.5}`) // repeat: one hit
	s.reg.Flush()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits+m.Cache.Misses != m.Cache.Lookups {
		t.Errorf("cache counters incoherent: %+v", m.Cache)
	}
	if m.Cache.Hits == 0 || m.Cache.Lookups < 2 {
		t.Errorf("repeat query did not hit: %+v", m.Cache)
	}
	if got := m.Counters["http.rendezvous"].Total; got != 2 {
		t.Errorf("http.rendezvous counter = %d, want 2", got)
	}
	if tm, ok := m.Timers["http.rendezvous"]; !ok || tm.Total != 2 {
		t.Errorf("http.rendezvous timer = %+v, want 2 observations", m.Timers["http.rendezvous"])
	}
	if m.Runtime.Goroutines <= 0 {
		t.Errorf("runtime stats missing: %+v", m.Runtime)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, cache.New(0), 3)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status     string  `json:"status"`
		UptimeS    float64 `json:"uptime_s"`
		SweepSlots int     `json:"sweep_slots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.SweepSlots != 3 {
		t.Errorf("healthz %+v, want ok with 3 sweep slots", h)
	}
}

// TestShutdownFlushLoadable drives traffic through a disk-backed server,
// flushes as the graceful-shutdown path does, and checks a fresh cache warms
// from the file with the same contents.
func TestShutdownFlushLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "served.jsonl")
	c, err := cache.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, c, 1)
	post(t, ts, "/v1/rendezvous", `{"v":0.5,"dx":1,"dy":0}`)
	post(t, ts, "/v1/search", `{"x":1.5,"y":0}`)
	post(t, ts, "/v1/sweep", `{"axes":["v=0.25:0.5:0.25"]}`)

	if err := c.Save(); err != nil {
		t.Fatalf("shutdown flush: %v", err)
	}
	warm, err := cache.Open(path, 0)
	if err != nil {
		t.Fatalf("reload flushed cache: %v", err)
	}
	if warm.Len() == 0 || warm.Len() != c.Len() {
		t.Fatalf("reloaded cache has %d results, server had %d", warm.Len(), c.Len())
	}

	// A restarted server on the warm cache answers the same query from disk
	// state: all hits, no new misses.
	s2, ts2 := newTestServer(t, warm, 1)
	post(t, ts2, "/v1/rendezvous", `{"v":0.5,"dx":1,"dy":0}`)
	if st := s2.cache.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm-start query stats %+v, want pure hit", st)
	}
}
