// Command loadcheck drives a live rvserved daemon with concurrent clients
// and asserts the serving path behaves under load: the singleflight cache
// deduplicates concurrent identical queries, repeats hit, the /metrics
// counters stay internally coherent (hits + misses == lookups), and the
// graceful-shutdown flush leaves a loadable warm-start file. It reports
// client-observed p50/p99 latency and the cache-hit ratio.
//
// It spawns the prebuilt server binary (-server), so the check covers the
// real process lifecycle — flag parsing, ephemeral-port listen, SIGTERM
// shutdown — not just the handlers:
//
//	go build -o bin/rvserved ./cmd/rvserved
//	go run ./cmd/loadcheck -server bin/rvserved -clients 8 -duration 5s
//
// Exit status 0 means every assertion held. `make loadcheck` wires this up,
// and CI runs it on every push.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cache"
)

func main() {
	var (
		server   = flag.String("server", "bin/rvserved", "path to the rvserved binary")
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		duration = flag.Duration("duration", 5*time.Second, "steady-state load duration")
	)
	flag.Parse()
	if err := run(*server, *clients, *duration); err != nil {
		fmt.Fprintln(os.Stderr, "loadcheck: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("loadcheck: PASS")
}

// metricsDoc mirrors the parts of rvserved's GET /metrics we assert on.
type metricsDoc struct {
	Counters map[string]struct {
		Total uint64 `json:"total"`
	} `json:"counters"`
	Cache struct {
		Lookups, Hits, Misses, Dedups uint64
		Len                           int
	} `json:"cache"`
}

func run(serverBin string, clients int, duration time.Duration) error {
	tmp, err := os.MkdirTemp("", "loadcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cacheFile := filepath.Join(tmp, "served.jsonl")

	cmd := exec.Command(serverBin,
		"-addr", "127.0.0.1:0",
		"-cachefile", cacheFile,
		"-flush", "2s",
		"-sweeps", "2",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", serverBin, err)
	}
	defer cmd.Process.Kill()

	base, lines, err := awaitListening(stdout)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, lines) // keep draining so the server never blocks on stdout

	// Phase 1 — dedup: every client fires the same expensive cold query at
	// once. A mirrored instance (χ = −1, φ = 0: R′ runs R's path mirrored
	// across the x-axis from (1, 0)) never meets and walks the whole
	// horizon on the safe advance (several ms), so the followers land while
	// the leader simulates and the singleflight must collapse them. The
	// χ = +1 twin would take the twin walk, too quick to overlap reliably.
	coldBody := `{"v":1,"tau":1,"phi":0,"chi":-1,"dx":1,"dy":0,"horizon":10000}`
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := post(base, "/v1/rendezvous", coldBody); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("dedup burst: %w", err)
	default:
	}

	// Phase 2 — steady state: each client loops over a small pool of
	// distinct point queries plus the occasional bounded sweep, so repeats
	// hit the cache and the sweep path sees admission-controlled traffic.
	var mu sync.Mutex
	var latencies []float64
	var queries, rejected int
	deadline := time.Now().Add(duration)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for time.Now().Before(deadline) {
				var path, body string
				if rng.Intn(20) == 0 {
					path = "/v1/sweep"
					body = `{"axes":["v=0.25:0.75:0.25"],"samples":2,"seed":7}`
				} else {
					path = "/v1/rendezvous"
					body = fmt.Sprintf(`{"v":0.%d,"dx":%d,"dy":0,"r":0.25}`,
						2+rng.Intn(7), 1+rng.Intn(3))
				}
				start := time.Now()
				status, err := post(base, path, body)
				elapsed := time.Since(start).Seconds()
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				queries++
				latencies = append(latencies, elapsed)
				if status == http.StatusTooManyRequests {
					rejected++
				} else if status != http.StatusOK {
					mu.Unlock()
					errs <- fmt.Errorf("%s: unexpected status %d", path, status)
					return
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("steady state: %w", err)
	default:
	}

	// Scrape and assert the serving-path counters.
	m, err := scrapeMetrics(base)
	if err != nil {
		return err
	}
	sort.Float64s(latencies)
	hitRatio := float64(m.Cache.Hits) / float64(max(m.Cache.Lookups, 1))
	fmt.Printf("loadcheck: %d clients, %d queries (%d sweep-rejected) in %v\n",
		clients, queries, rejected, duration)
	fmt.Printf("loadcheck: latency p50 %.2fms p99 %.2fms; cache %d lookups, hit ratio %.3f, %d dedups\n",
		quantile(latencies, 0.5)*1e3, quantile(latencies, 0.99)*1e3,
		m.Cache.Lookups, hitRatio, m.Cache.Dedups)

	if m.Cache.Hits+m.Cache.Misses != m.Cache.Lookups {
		return fmt.Errorf("incoherent cache counters: hits %d + misses %d != lookups %d",
			m.Cache.Hits, m.Cache.Misses, m.Cache.Lookups)
	}
	if m.Cache.Dedups == 0 {
		return fmt.Errorf("no dedups: %d concurrent identical cold queries never collapsed", clients)
	}
	if m.Cache.Hits == 0 {
		return fmt.Errorf("no cache hits across %d repeating queries", queries)
	}
	if got := m.Counters["http.rendezvous"].Total; got == 0 {
		return fmt.Errorf("telemetry http.rendezvous counter never moved")
	}

	// Graceful shutdown: SIGTERM, wait for the final flush, and reload the
	// warm-start file the way a restarted daemon would.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("server exit after SIGTERM: %w", err)
	}
	warm, err := cache.Open(cacheFile, 0)
	if err != nil {
		return fmt.Errorf("reload flushed cache: %w", err)
	}
	if warm.Len() == 0 {
		return fmt.Errorf("shutdown flush left an empty cache file")
	}
	fmt.Printf("loadcheck: shutdown flush loadable: %d results in %s\n", warm.Len(), cacheFile)
	return nil
}

// awaitListening reads the server's stdout until the "listening on" line and
// returns the base URL plus the still-open reader.
func awaitListening(stdout io.Reader) (string, io.Reader, error) {
	br := bufio.NewReader(stdout)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", nil, fmt.Errorf("server exited before listening: %w", err)
		}
		if i := strings.Index(line, "listening on "); i >= 0 {
			return strings.TrimSpace(line[i+len("listening on "):]), br, nil
		}
	}
	return "", nil, fmt.Errorf("no listening line within 10s")
}

func post(base, path, body string) (int, error) {
	resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func scrapeMetrics(base string) (metricsDoc, error) {
	var m metricsDoc
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// quantile interpolates the q-quantile of a sorted slice (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
