package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/feasibility"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// maxRequestBody bounds every request body; the API's JSON documents are
// tiny, so anything larger is a client error, not a workload.
const maxRequestBody = 1 << 20

// maxRequestWorkers caps the private worker budget a /v1/sweep request may
// claim for itself: one request can use at most the machine, never more.
func maxRequestWorkers() int { return runtime.GOMAXPROCS(0) }

// server is the shared serving state: the singleflight result cache (the hot
// store every request reads through), the process-wide sweep pool, the
// telemetry registry, and the sweep admission control.
type server struct {
	cache *cache.Cache
	pool  *sweep.Pool
	reg   *telemetry.Registry
	mon   *sweep.Monitor
	start time.Time

	// Admission control for /v1/sweep: at most cap(sweepSem) sweep requests
	// are in the building (queued on the pool or executing). A full house
	// answers 429 + Retry-After instead of queueing unboundedly, so heavy
	// sweeps can never pile up behind each other and starve point queries.
	sweepSem chan struct{}
	// maxSweepJobs bounds one sweep request's job count (grid points ×
	// samples): the per-request work budget.
	maxSweepJobs int
	// maxWorkers caps a request's private worker budget (req.Workers);
	// requests without one share the process-wide pool.
	maxWorkers int
	// batch routes /v1/sweep evaluations through the SoA batch kernels
	// (identical response bytes; batch.rows/batch.lanes count the kernel
	// calls and the lanes they amortized).
	batch bool
	// timeout is the per-request simulation deadline (-timeout): each point
	// query and sweep runs under a context that expires after it, the
	// deadline propagates into the horizon-walk loops (sim.Options.Ctx),
	// and an expired request answers 503 + Retry-After with the
	// requests.deadline counter incremented. 0 disables.
	timeout time.Duration

	requests, errs, rejected *telemetry.Counter
	batchRows, batchLanes    *telemetry.Counter
	deadline                 *telemetry.Counter
	sweepDepth               *telemetry.Gauge
	// samplerUse counts sweep requests per draw source ("sampler.pseudo",
	// "sampler.sobol", ...): the /metrics view of which estimators clients
	// actually run.
	samplerUse map[sampler.Kind]*telemetry.Counter
}

// newServer assembles the serving state. sweeps is the admission capacity of
// /v1/sweep (0 rejects every sweep — useful in tests), maxSweepJobs the
// per-request job budget, maxWorkers the cap on private worker budgets,
// batch whether sweeps evaluate through the SoA batch kernels, timeout the
// per-request simulation deadline (0 disables).
func newServer(c *cache.Cache, pool *sweep.Pool, reg *telemetry.Registry, sweeps, maxSweepJobs, maxWorkers int, batch bool, timeout time.Duration) *server {
	s := &server{
		cache:        c,
		pool:         pool,
		reg:          reg,
		mon:          &sweep.Monitor{},
		start:        time.Now(),
		sweepSem:     make(chan struct{}, sweeps),
		maxSweepJobs: maxSweepJobs,
		maxWorkers:   maxWorkers,
		batch:        batch,
		timeout:      timeout,
		requests:     reg.Counter("http.requests"),
		errs:         reg.Counter("http.errors"),
		rejected:     reg.Counter("sweep.rejected"),
		batchRows:    reg.Counter("batch.rows"),
		batchLanes:   reg.Counter("batch.lanes"),
		deadline:     reg.Counter("requests.deadline"),
		sweepDepth:   reg.Gauge("sweep.in_flight"),
		samplerUse:   make(map[sampler.Kind]*telemetry.Counter),
	}
	for _, kind := range sampler.Kinds() {
		s.samplerUse[kind] = reg.Counter("sampler." + kind.String())
	}
	telemetry.AttachMonitor(reg, s.mon)
	s.sweepDepth.Set(0)
	return s
}

// routes builds the endpoint mux.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rendezvous", s.instrument("rendezvous", s.handleRendezvous))
	mux.HandleFunc("POST /v1/search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("POST /v1/feasibility", s.instrument("feasibility", s.handleFeasibility))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// instrument wraps a handler with the per-endpoint request counter and
// latency timer plus the global request/error counters.
func (s *server) instrument(name string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	counter := s.reg.Counter("http." + name)
	timer := s.reg.Timer("http." + name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Inc()
		counter.Inc()
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		if err := h(w, r); err != nil {
			s.errs.Inc()
			writeError(w, err)
		}
		timer.Observe(time.Since(start))
	}
}

// httpError carries a status code out of a handler.
type httpError struct {
	status int
	msg    string
	header map[string]string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// requestCtx derives the per-request simulation context: the client's
// request context (so a dropped connection cancels the walk) bounded by the
// server's -timeout deadline. With no timeout the request context is used
// as-is.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// queryError classifies a simulation error: a cancellation — the request
// deadline expiring mid-walk, or the client going away — is 503 +
// Retry-After with the requests.deadline counter incremented (the work was
// valid, the time budget was not); anything else is the client's 400. The
// cancel sentinels are matched through the sweep engine's wrappers
// (JobError, LaneError) via errors.Is.
func (s *server) queryError(err error) error {
	if errors.Is(err, sim.ErrCanceled) || errors.Is(err, sweep.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.deadline.Inc()
		return &httpError{
			status: http.StatusServiceUnavailable,
			msg:    fmt.Sprintf("deadline exceeded: %v", err),
			header: map[string]string{"Retry-After": strconv.Itoa(retryAfterSeconds)},
		}
	}
	return badRequest("%v", err)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
		for k, v := range he.header {
			w.Header().Set(k, v)
		}
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing useful left to do
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// pointParams are the optional instance parameters of a point query. Absent
// fields keep the default working point of the CLI's -grid sweeps (the
// mapping is experiments.GridInstance, shared verbatim): v = 1/2, τ = 1,
// φ = 0, χ = +1, d = (1,0), r = 1/4. dx/dy override the displacement vector
// exactly; d keeps it on the +x axis.
type pointParams struct {
	V   *float64 `json:"v,omitempty"`
	Tau *float64 `json:"tau,omitempty"`
	Phi *float64 `json:"phi,omitempty"`
	Chi *float64 `json:"chi,omitempty"`
	D   *float64 `json:"d,omitempty"`
	DX  *float64 `json:"dx,omitempty"`
	DY  *float64 `json:"dy,omitempty"`
	R   *float64 `json:"r,omitempty"`
}

// instance maps the present parameters onto the default instance via the
// same request→Instance mapping the CLI grid sweeps use.
func (p pointParams) instance() (sim.Instance, error) {
	var names []string
	var vals []float64
	add := func(name string, v *float64) {
		if v != nil {
			names = append(names, name)
			vals = append(vals, *v)
		}
	}
	add("v", p.V)
	add("tau", p.Tau)
	add("phi", p.Phi)
	add("chi", p.Chi)
	add("d", p.D)
	add("r", p.R)
	in, err := experiments.GridInstance(names, vals)
	if err != nil {
		return in, badRequest("%v", err)
	}
	if p.DX != nil || p.DY != nil {
		if p.D != nil {
			return in, badRequest("d and dx/dy are mutually exclusive")
		}
		var d geom.Vec
		if p.DX != nil {
			d.X = *p.DX
		}
		if p.DY != nil {
			d.Y = *p.DY
		}
		in.D = d
		if err := in.Validate(); err != nil {
			return in, badRequest("%v", err)
		}
	}
	return in, nil
}

// simResponse is the JSON shape of one simulation outcome.
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

func toSimResponse(res sim.Result, horizon float64, programID string, elapsed time.Duration) simResponse {
	return simResponse{
		Met:       res.Met,
		Time:      res.Time,
		Gap:       res.Gap,
		DistanceA: res.DistanceA,
		DistanceB: res.DistanceB,
		Intervals: res.Intervals,
		Horizon:   horizon,
		Algorithm: programID,
		ElapsedMS: elapsed.Seconds() * 1e3,
	}
}

// rendezvousRequest is the POST /v1/rendezvous body.
type rendezvousRequest struct {
	pointParams
	Algo    string   `json:"algo,omitempty"`
	Horizon *float64 `json:"horizon,omitempty"`
	// Sampler is accepted for parity with /v1/sweep and validated the
	// same way; a single exact instance draws nothing, so a valid name
	// changes no bytes here.
	Sampler string `json:"sampler,omitempty"`
}

// handleRendezvous serves POST /v1/rendezvous: one exact rendezvous
// simulation, read through the singleflight cache (concurrent identical
// queries simulate once; repeats are served from memory).
func (s *server) handleRendezvous(w http.ResponseWriter, r *http.Request) error {
	var req rendezvousRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if _, err := sampler.ParseKind(req.Sampler); err != nil {
		return badRequest("%v", err)
	}
	in, err := req.instance()
	if err != nil {
		return err
	}
	programID, program, err := experiments.GridAlgorithm(req.Algo)
	if err != nil {
		return badRequest("%v", err)
	}
	horizon := experiments.RendezvousHorizon(in)
	if req.Horizon != nil {
		horizon = *req.Horizon
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	res, err := s.cache.Rendezvous(programID, program, in, sim.Options{Horizon: horizon, Ctx: ctx})
	if err != nil {
		return s.queryError(err)
	}
	writeJSON(w, http.StatusOK, toSimResponse(res, horizon, programID, time.Since(start)))
	return nil
}

// defaultSearchHorizon bounds a search query whose caller did not pass one.
// The cumulative search covers every target eventually, so the horizon only
// matters for unreachable configurations; 1e5 keeps those bounded without
// truncating any sensible query.
const defaultSearchHorizon = 1e5

// handleSearch serves POST /v1/search: the one-robot search problem against
// a static target, through the same cache.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Algo    string   `json:"algo,omitempty"`
		X       float64  `json:"x"`
		Y       float64  `json:"y"`
		R       *float64 `json:"r,omitempty"`
		Horizon *float64 `json:"horizon,omitempty"`
	}
	if err := decode(r, &req); err != nil {
		return err
	}
	programID, program, err := experiments.GridAlgorithm(req.Algo)
	if err != nil {
		return badRequest("%v", err)
	}
	radius := 0.25
	if req.R != nil {
		radius = *req.R
	}
	horizon := defaultSearchHorizon
	if req.Horizon != nil {
		horizon = *req.Horizon
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	res, err := s.cache.Search(programID, program, geom.V(req.X, req.Y), radius, sim.Options{Horizon: horizon, Ctx: ctx})
	if err != nil {
		return s.queryError(err)
	}
	writeJSON(w, http.StatusOK, toSimResponse(res, horizon, programID, time.Since(start)))
	return nil
}

// handleFeasibility serves POST /v1/feasibility: the Theorem 4
// characterisation for the given attributes — pure classification, no
// simulation.
func (s *server) handleFeasibility(w http.ResponseWriter, r *http.Request) error {
	var req pointParams
	if err := decode(r, &req); err != nil {
		return err
	}
	in, err := req.instance()
	if err != nil {
		return err
	}
	verdict := feasibility.Classify(in.Attrs)
	reasons := make([]string, len(verdict.Reasons))
	for i, reason := range verdict.Reasons {
		reasons[i] = reason.String()
	}
	writeJSON(w, http.StatusOK, struct {
		Feasible  bool             `json:"feasible"`
		Reasons   []string         `json:"reasons"`
		Algorithm string           `json:"algorithm"`
		Attrs     frame.Attributes `json:"attributes"`
	}{verdict.Feasible, reasons, feasibility.Recommend(in.Attrs).String(), in.Attrs})
	return nil
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	Axes    []string `json:"axes"`
	Algo    string   `json:"algo,omitempty"`
	Samples int      `json:"samples,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Sampler string   `json:"sampler,omitempty"`
	Workers int      `json:"workers,omitempty"`
}

// handleSweep serves POST /v1/sweep: a whole grid of rendezvous instances
// through the shared process-wide sweep pool (or, when the request carries
// its own worker budget, through private goroutines capped at that budget).
// Admission is bounded: a full sweep house answers 429 + Retry-After.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req sweepRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Axes) == 0 {
		return badRequest("axes required (e.g. [\"v=0.25:1:0.25\"])")
	}
	samplerKind, err := sampler.ParseKind(req.Sampler)
	if err != nil {
		return badRequest("%v", err)
	}
	if req.Samples < 0 || req.Workers < 0 {
		return badRequest("samples and workers must be non-negative")
	}
	grid, gerr := sweep.ParseGrid(req.Axes...)
	if gerr != nil {
		return badRequest("%v", gerr)
	}
	jobs, jerr := grid.Jobs(req.Samples)
	if jerr != nil {
		return badRequest("%v", jerr)
	}
	if jobs > s.maxSweepJobs {
		return badRequest("sweep of %d jobs exceeds the per-request budget of %d jobs", jobs, s.maxSweepJobs)
	}

	select {
	case s.sweepSem <- struct{}{}:
		s.sweepDepth.Set(float64(len(s.sweepSem)))
		defer func() {
			<-s.sweepSem
			s.sweepDepth.Set(float64(len(s.sweepSem)))
		}()
	default:
		s.rejected.Inc()
		return &httpError{
			status: http.StatusTooManyRequests,
			msg:    fmt.Sprintf("sweep admission full (%d in flight); retry shortly", cap(s.sweepSem)),
			header: map[string]string{"Retry-After": strconv.Itoa(retryAfterSeconds)},
		}
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	s.samplerUse[samplerKind].Inc()
	cfg := experiments.Config{
		Seed:    req.Seed,
		Samples: req.Samples,
		Sampler: samplerKind,
		Cache:   s.cache,
		Monitor: s.mon,
		Pool:    s.pool,
		Batch:   s.batch,
		Ctx:     ctx,
		OnBatch: func(rows, lanes int) {
			s.batchRows.Add(uint64(rows))
			s.batchLanes.Add(uint64(lanes))
		},
	}
	if req.Workers > 0 {
		// A private worker budget: this sweep runs on its own goroutines,
		// capped at the request's budget (itself capped by the server), and
		// leaves the shared pool to everyone else.
		cfg.Pool = nil
		cfg.Workers = min(req.Workers, s.maxWorkers)
	}
	start := time.Now()
	res, err := experiments.SweepGrid(req.Axes, req.Algo, cfg)
	if err != nil {
		return s.queryError(err)
	}
	writeJSON(w, http.StatusOK, struct {
		*experiments.GridResult
		Seed      int64   `json:"seed"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}{res, req.Seed, time.Since(start).Seconds() * 1e3})
	return nil
}

// retryAfterSeconds is the Retry-After hint on a 429: sweeps are seconds,
// not hours, so a short backoff is honest.
const retryAfterSeconds = 1

// metricsResponse is the GET /metrics document: the telemetry snapshot plus
// the cache's coherent counter snapshot. Cache.Lookups == Hits + Misses in
// every scrape — cache.Stats takes the whole snapshot in one critical
// section — which load checks assert end to end.
type metricsResponse struct {
	telemetry.Snapshot
	Cache cache.Stats `json:"cache"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	writeJSON(w, http.StatusOK, metricsResponse{Snapshot: s.reg.Snapshot(), Cache: s.cache.Stats()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_s":    time.Since(s.start).Seconds(),
		"cache_len":   s.cache.Len(),
		"pool_size":   s.pool.Workers(),
		"sweep_slots": cap(s.sweepSem),
	})
}
