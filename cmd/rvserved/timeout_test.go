package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// newTimeoutServer is newTestServer with a per-request deadline.
func newTimeoutServer(t *testing.T, timeout time.Duration) (*server, *httptest.Server) {
	t.Helper()
	pool := sweep.NewPool(2)
	t.Cleanup(pool.Close)
	s := newServer(cache.New(0), pool, telemetry.NewRegistry(0), 1, 1<<20, 4, timeout)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestDeadline503 proves the -timeout deadline reaches the horizon-walk loop:
// a symmetric (infeasible) instance with an enormous horizon would walk for
// ages, but under a nanosecond deadline the request comes back promptly as
// 503 + Retry-After with requests.deadline incremented — the cancellation
// stopped the walk, not the horizon.
func TestDeadline503(t *testing.T) {
	s, ts := newTimeoutServer(t, time.Nanosecond)

	start := time.Now()
	status, body := post(t, ts, "/v1/rendezvous",
		`{"v":1,"tau":1,"phi":0,"chi":1,"dx":1,"dy":0,"horizon":1e12}`)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("canceled walk took %v; cancellation did not reach the loop", elapsed)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %s), want 503", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Errorf("503 body %q, want a JSON error mentioning the deadline", body)
	}
	if got := s.deadline.Total(); got != 1 {
		t.Errorf("requests.deadline = %d, want 1", got)
	}

	// The search path threads the same context.
	status, _ = post(t, ts, "/v1/search", `{"x":1e6,"y":0,"horizon":1e12}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("search under expired deadline: status %d, want 503", status)
	}
	if got := s.deadline.Total(); got != 2 {
		t.Errorf("requests.deadline = %d, want 2", got)
	}
}

// TestSweepDeadline503 runs a sweep whose cells are all infeasible
// long-horizon walks under an immediate deadline: the cancellation must
// propagate through the sweep engine's error wrappers into a 503.
func TestSweepDeadline503(t *testing.T) {
	s, ts := newTimeoutServer(t, time.Nanosecond)
	status, body := post(t, ts, "/v1/sweep", `{"axes":["v=1:1:1","phi=0:0:1"]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %s), want 503", status, body)
	}
	if got := s.deadline.Total(); got == 0 {
		t.Error("requests.deadline not incremented by a canceled sweep")
	}
}

// TestDeadlineRetryAfter checks the 503 carries the Retry-After hint.
func TestDeadlineRetryAfter(t *testing.T) {
	_, ts := newTimeoutServer(t, time.Nanosecond)
	resp, err := http.Post(ts.URL+"/v1/rendezvous", "application/json",
		bytes.NewReader([]byte(`{"v":1,"tau":1,"phi":0,"chi":1,"horizon":1e12}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	}
}

// TestDeadlineDisabledIdentical: with -timeout 0 the request context is used
// as-is and a normal query is answered exactly as before — the deadline path
// costs nothing when off.
func TestDeadlineDisabledIdentical(t *testing.T) {
	s, ts := newTimeoutServer(t, 0)
	status, body := post(t, ts, "/v1/rendezvous", `{"v":0.5,"dx":1,"dy":0}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	if got := s.deadline.Total(); got != 0 {
		t.Errorf("requests.deadline = %d with timeouts disabled, want 0", got)
	}
}

// TestGenerousDeadlineCompletes: a deadline far beyond the query's cost does
// not perturb the answer — same bytes a no-deadline server produces.
func TestGenerousDeadlineCompletes(t *testing.T) {
	_, tsPlain := newTimeoutServer(t, 0)
	_, tsDeadline := newTimeoutServer(t, time.Minute)
	q := `{"v":0.5,"dx":1,"dy":0,"r":0.25}`
	st1, body1 := post(t, tsPlain, "/v1/rendezvous", q)
	st2, body2 := post(t, tsDeadline, "/v1/rendezvous", q)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200", st1, st2)
	}
	var r1, r2 simResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	r1.ElapsedMS, r2.ElapsedMS = 0, 0
	if r1 != r2 {
		t.Errorf("deadline changed the result: %+v != %+v", r2, r1)
	}
}

// TestOversizedBody400: request bodies beyond maxRequestBody are cut off by
// MaxBytesReader and answered 400, never buffered whole.
func TestOversizedBody400(t *testing.T) {
	_, ts := newTestServer(t, cache.New(0), 1)
	huge := `{"v":0.5,"pad":"` + strings.Repeat("x", maxRequestBody+1) + `"}`
	status, body := post(t, ts, "/v1/rendezvous", huge)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d (%s), want 400", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("oversized-body response %q not a JSON error", body)
	}
}

// TestSlowlorisHeaderCutoff starts a real listener through newHTTPServer with
// a short header deadline, dribbles half a request, and checks the server
// cuts the connection off promptly instead of holding it open (net/http
// closes without a reply on a header-read timeout, so the wire-visible
// contract is the prompt EOF, not a status line).
func TestSlowlorisHeaderCutoff(t *testing.T) {
	pool := sweep.NewPool(1)
	t.Cleanup(pool.Close)
	s := newServer(cache.New(0), pool, telemetry.NewRegistry(0), 1, 512, 4, 0)
	httpSrv := newHTTPServer(s.routes(), 100*time.Millisecond, time.Second)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	t.Cleanup(func() { httpSrv.Close() })

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the header never completes within the deadline.
	if _, err := io.WriteString(conn, "POST /v1/rendezvous HTTP/1.1\r\nHost: t\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, err := io.ReadAll(conn)
	if elapsed := time.Since(start); err != nil || elapsed > 5*time.Second {
		t.Fatalf("slow header not cut off: read err %v after %v (held open past the 100ms deadline)", err, elapsed)
	}
	if len(raw) != 0 {
		t.Logf("server replied %q before closing", raw)
	}

	// A well-formed request on the same server still answers fine: the
	// timeouts punish slow clients only.
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/feasibility",
		"application/json", strings.NewReader(`{"v":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after cutoff: status %d, want 200", resp.StatusCode)
	}
}
