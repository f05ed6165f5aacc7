package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// FuzzHandlers sends arbitrary bodies to every POST endpoint of an
// in-process server with a small sweep budget and a short deadline. Every
// answer must be 200, 400, 429 or 503 — never a panic, never a 500 — and a
// 200 from /v1/rendezvous or /v1/sweep must equal the answer recomputed
// here from the same body without the server (elapsed_ms aside). /v1/sweep
// is where untrusted input reaches the sampler's streams.
func FuzzHandlers(f *testing.F) {
	for _, body := range []string{
		`{"v":0.5,"dx":1,"dy":0,"r":0.25}`,
		`{"v":0.5,"tau":1,"phi":1,"chi":-1,"d":2,"algo":"alg4","horizon":500}`,
		`{"x":1,"y":1,"r":0.25}`,
		`{"axes":["v=0.25:0.75:0.25"],"samples":2,"seed":7}`,
		`{"axes":["v=0.5","phi=0:2:1"],"samples":3,"seed":-9,"sampler":"sobol"}`,
		`{"axes":["v=0.5"],"samples":4,"seed":9223372036854775807,"sampler":"halton","workers":2}`,
		`{"axes":["v=0.25:1:0.25"],"samples":4611686018427387904}`, // points × samples wraps to 0
		`{"axes":["v=0.5"],"samples":-1}`,
		`{"axes":[]}`,
		`{"v":1,"phi":0,"horizon":1e300}`,
		`{"v":0.5} trailing`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	pool := sweep.NewPool(1)
	f.Cleanup(pool.Close)
	s := newServer(cache.New(0), pool, telemetry.NewRegistry(0), 1, 16, 2, true, 50*time.Millisecond)
	mux := s.routes()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/rendezvous", "/v1/search", "/v1/feasibility", "/v1/sweep"} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				continue
			default:
				t.Fatalf("POST %s %q: status %d, body %s", path, body, rec.Code, rec.Body.Bytes())
			}
			var want any
			switch path {
			case "/v1/rendezvous":
				want = recomputeRendezvous(t, body)
			case "/v1/sweep":
				want = recomputeSweep(t, body)
			default:
				continue
			}
			if got, exp := withoutElapsed(t, rec.Body.Bytes()), withoutElapsed(t, encodeJSON(t, want)); !reflect.DeepEqual(got, exp) {
				t.Fatalf("POST %s %q: served %s, recomputed %s", path, body, rec.Body.Bytes(), encodeJSON(t, want))
			}
		}
	})
}

// decodeStrict decodes body as the handlers do.
func decodeStrict(t *testing.T, body []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("server answered 200 to a body that does not decode: %v", err)
	}
}

// recomputeRendezvous answers a /v1/rendezvous body straight from the
// simulator, without a cache or a deadline.
func recomputeRendezvous(t *testing.T, body []byte) simResponse {
	t.Helper()
	var req rendezvousRequest
	decodeStrict(t, body, &req)
	in, err := req.instance()
	if err != nil {
		t.Fatalf("server answered 200 to an invalid instance: %v", err)
	}
	programID, program, err := experiments.GridAlgorithm(req.Algo)
	if err != nil {
		t.Fatalf("server answered 200 to an unknown algorithm: %v", err)
	}
	horizon := experiments.RendezvousHorizon(in)
	if req.Horizon != nil {
		horizon = *req.Horizon
	}
	res, err := sim.Rendezvous(program(), in, sim.Options{Horizon: horizon})
	if err != nil {
		t.Fatalf("recomputation failed where the server answered 200: %v", err)
	}
	return toSimResponse(res, horizon, programID, 0)
}

// recomputeSweep answers a /v1/sweep body on the scalar path, serially,
// without a cache, pool or deadline — so it also holds the server's batch
// kernels to the scalar walk.
func recomputeSweep(t *testing.T, body []byte) any {
	t.Helper()
	var req sweepRequest
	decodeStrict(t, body, &req)
	kind, err := sampler.ParseKind(req.Sampler)
	if err != nil {
		t.Fatalf("server answered 200 to an unknown sampler: %v", err)
	}
	res, err := experiments.SweepGrid(req.Axes, req.Algo, experiments.Config{
		Seed: req.Seed, Samples: req.Samples, Sampler: kind, Workers: 1,
	})
	if err != nil {
		t.Fatalf("recomputation failed where the server answered 200: %v", err)
	}
	return struct {
		*experiments.GridResult
		Seed int64 `json:"seed"`
	}{res, req.Seed}
}

// encodeJSON encodes v as writeJSON does.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode %+v: %v", v, err)
	}
	return buf.Bytes()
}

// withoutElapsed splits a JSON object into its fields, minus the
// wall-clock elapsed_ms.
func withoutElapsed(t *testing.T, b []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("200 body %q is not a JSON object: %v", b, err)
	}
	delete(m, "elapsed_ms")
	return m
}
