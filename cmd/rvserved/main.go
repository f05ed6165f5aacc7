// Command rvserved serves the rendezvous/search/feasibility simulators as a
// long-running HTTP/JSON daemon — rendezvous as a service.
//
// Endpoints:
//
//	POST /v1/rendezvous  one exact rendezvous simulation
//	                     {"v":0.5,"tau":1,"phi":0,"chi":1,"dx":1,"dy":0,"r":0.25,
//	                      "algo":"search|universal","horizon":123.4}
//	                     — every field optional; absent fields take the
//	                     default working point of the CLI grid sweeps
//	                     (v=0.5, τ=1, φ=0, χ=+1, d=(1,0), r=0.25).
//	POST /v1/search      one-robot search for a static target
//	                     {"x":2,"y":1,"r":0.25,"algo":"...","horizon":1e5}
//	POST /v1/feasibility Theorem 4 classification (no simulation)
//	                     {"v":0.5,"tau":1,"phi":0,"chi":1}
//	POST /v1/sweep       a grid of rendezvous instances through the shared
//	                     process-wide sweep pool
//	                     {"axes":["v=0.25:1:0.25","d=1:3:1"],"algo":"search",
//	                      "samples":3,"seed":7,"sampler":"sobol","workers":0}
//	                     — "sampler" selects the Monte-Carlo draw source:
//	                     "pseudo" (the default; omitted and "" mean the
//	                     same), "stratified", "halton", or "sobol". Unknown
//	                     names are a 400. The response echoes the resolved
//	                     name in its "sampler" field. /v1/rendezvous accepts
//	                     the same field for request parity (validated, but a
//	                     single exact instance draws nothing)
//	GET  /metrics        telemetry snapshot (flush-interval counters, gauges,
//	                     latency timers, runtime stats) + coherent cache
//	                     counters (hits+misses == lookups in every scrape).
//	                     batch.rows counts the SoA kernel calls of sweeps
//	                     and batch.lanes the instances they amortized
//	                     (lanes/rows ≈ the amortization factor);
//	                     sampler.<name> counts sweep requests per draw source
//	GET  /healthz        liveness: uptime, cache occupancy, pool size
//
// The singleflight result cache is the server's hot store: repeated queries
// are served from memory, concurrent identical queries simulate once, and
// with -cachefile the cache doubles as restart-warm state — loaded on boot,
// flushed every -flush interval and once more on graceful shutdown
// (SIGINT/SIGTERM), so a restarted daemon answers its working set from disk.
//
// Admission control: at most -sweeps sweep requests are in flight at once
// and each is bounded to -sweep-jobs jobs (grid points × samples); excess
// sweeps are rejected with 429 + Retry-After rather than queued unboundedly,
// so batch traffic cannot starve point queries.
//
// Flags:
//
//	-addr ADDR        listen address (default :8080; use 127.0.0.1:0 for an
//	                  ephemeral port — the bound address is printed on stdout)
//	-workers N        shared sweep pool size (0 = GOMAXPROCS)
//	-cachefile PATH   JSON-lines cache persistence (empty = memory only)
//	-cachesize N      LRU capacity (0 = default 65536)
//	-flush D          periodic cache flush interval (0 disables; default 60s)
//	-sweeps N         max concurrent /v1/sweep requests (default 2)
//	-sweep-jobs N     per-sweep job budget, points × samples (default 4096)
//	-metrics-flush D  telemetry flush interval (default 10s)
//	-timeout D        per-request simulation deadline (default 60s; 0
//	                  disables). The deadline threads into the horizon-walk
//	                  loops (sim.Options.Ctx), so a query that would walk past
//	                  it is canceled mid-walk and answered 503 + Retry-After,
//	                  with the requests.deadline counter incremented. A valid
//	                  query that completes in time is byte-identical with any
//	                  timeout value.
//	-chaos SPEC       deterministic fault injection into the cache persistence
//	                  path (see internal/chaos): e.g.
//	                  "seed=7,every=3,kinds=err+short,sites=cache.save".
//	                  Faults are a pure function of (seed, site, invocation
//	                  count) — reruns replay the exact schedule. For crash
//	                  drills and cmd/chaoscheck, not production.
//
// Durability: the cache file is written via fsync + atomic rename, every
// record is CRC-framed, and Puts between flushes append to a sidecar journal
// (<cachefile>.journal) replayed on boot — a SIGKILL loses at most the
// unflushed journal tail (< one journal window). Damaged lines are counted
// (cache.corrupt in /metrics) and skipped, never trusted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		workers      = flag.Int("workers", 0, "shared sweep pool size (0 = GOMAXPROCS)")
		cacheFile    = flag.String("cachefile", "", "JSON-lines cache persistence path (empty = memory only)")
		cacheSize    = flag.Int("cachesize", 0, "result cache capacity (0 = default)")
		flushEvery   = flag.Duration("flush", time.Minute, "periodic cache flush interval (0 disables)")
		sweeps       = flag.Int("sweeps", 2, "max concurrent /v1/sweep requests")
		sweepJobs    = flag.Int("sweep-jobs", 4096, "per-sweep job budget (grid points × samples)")
		metricsFlush = flag.Duration("metrics-flush", telemetry.DefaultInterval, "telemetry flush interval")
		timeout      = flag.Duration("timeout", time.Minute, "per-request simulation deadline (0 disables; expiry answers 503)")
		chaosSpec    = flag.String("chaos", "", "deterministic fault-injection spec for the cache persistence path (see internal/chaos; empty disables)")
	)
	flag.Parse()
	if err := run(*addr, *workers, *cacheFile, *cacheSize, *flushEvery, *sweeps, *sweepJobs, *metricsFlush, *timeout, *chaosSpec); err != nil {
		fmt.Fprintln(os.Stderr, "rvserved:", err)
		os.Exit(1)
	}
}

// defaultReadHeaderTimeout and defaultIdleTimeout are the server's slow-client
// protections: a client that dribbles its request headers is cut off with 408
// (slowloris protection), an idle keep-alive connection is reclaimed after two
// minutes. Neither touches an accepted request's simulation budget — that is
// -timeout's job.
const (
	defaultReadHeaderTimeout = 10 * time.Second
	defaultIdleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps a handler with the transport-level timeouts every
// rvserved listener uses (the serving tests exercise the same constructor with
// shorter values).
func newHTTPServer(h http.Handler, readHeaderTimeout, idleTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(addr string, workers int, cacheFile string, cacheSize int, flushEvery time.Duration, sweeps, sweepJobs int, metricsFlush time.Duration, timeout time.Duration, chaosSpec string) error {
	if sweeps < 1 {
		return fmt.Errorf("-sweeps must be at least 1")
	}
	if sweepJobs < 1 {
		return fmt.Errorf("-sweep-jobs must be at least 1")
	}
	inj, err := chaos.Parse(chaosSpec)
	if err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}

	var c *cache.Cache
	if cacheFile != "" {
		c, err = cache.Open(cacheFile, cacheSize)
		if err != nil {
			return fmt.Errorf("open cache: %w", err)
		}
		fmt.Printf("rvserved: cache %s warm with %d results\n", cacheFile, c.Len())
	} else {
		c = cache.New(cacheSize)
	}
	c.SetChaos(inj)

	pool := sweep.NewPool(workers)
	defer pool.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.NewRegistry(metricsFlush)
	reg.Start(ctx)

	srv := newServer(c, pool, reg, sweeps, sweepJobs, maxRequestWorkers(), timeout)
	httpSrv := newHTTPServer(srv.routes(), defaultReadHeaderTimeout, defaultIdleTimeout)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The printed address is the contract for ephemeral-port callers
	// (loadcheck, supervisors): parse the line, then talk to the port.
	fmt.Printf("rvserved: listening on http://%s\n", ln.Addr())

	// Periodic flush: restart-warm state must not depend on a clean
	// shutdown. Save serializes against concurrent flushes internally.
	if cacheFile != "" && flushEvery > 0 {
		go func() {
			tick := time.NewTicker(flushEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := c.Save(); err != nil {
						fmt.Fprintln(os.Stderr, "rvserved: periodic cache flush:", err)
					}
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Println("rvserved: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rvserved: shutdown:", err)
	}
	// The final flush lands after in-flight requests finished their Puts, so
	// the on-disk state holds the complete working set for the next boot.
	if cacheFile != "" {
		if err := c.Save(); err != nil {
			return fmt.Errorf("shutdown cache flush: %w", err)
		}
		fmt.Printf("rvserved: cache flushed to %s (%d results)\n", cacheFile, c.Len())
	}
	return nil
}
