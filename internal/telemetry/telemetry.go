// Package telemetry provides the operational metrics of a long-running
// serving process: counters, gauges, and timers aggregated per flush
// interval, in the style of gost's BufferedCounts — raw observations are
// buffered between flushes, each flush rotates them into the "last interval"
// aggregate, and a snapshot reports both the cumulative totals and the last
// completed interval, plus Go runtime/os stats.
//
// The flush-interval design is what makes a /metrics endpoint cheap and
// meaningful under heavy traffic: hot paths touch one atomic (counters,
// gauges) or one short critical section (timers); the percentile sorting
// work happens once per interval, not per scrape; and "requests in the last
// 10 s" is a rate a dashboard can plot directly, where a raw cumulative
// counter needs client-side differencing.
//
// All methods are safe for concurrent use. Metric handles are cheap to look
// up by name but hot paths should hold on to them.
package telemetry

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// DefaultInterval is the flush interval selected by NewRegistry(0).
const DefaultInterval = 10 * time.Second

// timerBufCap bounds the per-interval observation buffer of one timer: a
// flush interval that sees more observations keeps the first timerBufCap for
// the percentile aggregate and counts the rest as sampled-out (the
// cumulative count still sees every observation).
const timerBufCap = 1 << 14

// Registry holds the named metrics of one process and their flush schedule.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	interval time.Duration
	flushed  time.Time // end of the last completed interval
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns a registry flushing every interval (0 or less selects
// DefaultInterval). Call Start to run the background flusher, or drive
// Flush manually (tests, batch tools).
func NewRegistry(interval time.Duration) *Registry {
	if interval <= 0 {
		interval = DefaultInterval
	}
	now := time.Now()
	return &Registry{
		start:    now,
		interval: interval,
		flushed:  now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		g.bits.Store(math.Float64bits(math.NaN()))
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Flush rotates every metric's buffered observations into its last-interval
// aggregate. The background flusher calls it on the registry's interval;
// calling it manually is harmless (the next snapshot just reports a shorter
// interval).
func (r *Registry) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.flush()
	}
	for _, t := range r.timers {
		t.flush()
	}
	r.flushed = time.Now()
}

// Start runs the background flusher until ctx ends.
func (r *Registry) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(r.interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				r.Flush()
			}
		}
	}()
}

// Counter is a monotonic event counter: a cumulative total plus the delta of
// the last completed flush interval.
type Counter struct {
	total  atomic.Uint64
	bucket atomic.Uint64 // since the last flush
	last   atomic.Uint64 // delta of the last completed interval
}

// Add counts n events.
func (c *Counter) Add(n uint64) {
	c.total.Add(n)
	c.bucket.Add(n)
}

// Inc counts one event.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the cumulative count.
func (c *Counter) Total() uint64 { return c.total.Load() }

func (c *Counter) flush() { c.last.Store(c.bucket.Swap(0)) }

// Gauge is a last-value metric (queue depth, jobs in flight, ...). Reports
// NaN until the first Set.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last set value (NaN before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer aggregates durations: a cumulative observation count plus order
// statistics of the last completed flush interval.
type Timer struct {
	mu      sync.Mutex
	count   uint64 // cumulative, never dropped
	buf     []float64
	sampled uint64 // observations beyond timerBufCap this interval
	last    TimerStats
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	t.count++
	if len(t.buf) < timerBufCap {
		t.buf = append(t.buf, d.Seconds())
	} else {
		t.sampled++
	}
	t.mu.Unlock()
}

// Count returns the cumulative observation count.
func (t *Timer) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// TimerStats are the order statistics of one flush interval's observations,
// in seconds. Sampled counts observations beyond the interval buffer cap
// that contributed to Count but not to the percentiles.
type TimerStats struct {
	Count   uint64  `json:"count"`
	Sampled uint64  `json:"sampled,omitempty"`
	Min     float64 `json:"min"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
}

// summarize computes the stats of one interval buffer. Zero observations
// yield the zero TimerStats (counts at zero, not NaN statistics, so the
// JSON snapshot stays plottable).
func summarize(buf []float64, sampled uint64) TimerStats {
	if len(buf) == 0 {
		return TimerStats{Sampled: sampled}
	}
	sort.Float64s(buf)
	sum := 0.0
	for _, x := range buf {
		sum += x
	}
	return TimerStats{
		Count:   uint64(len(buf)) + sampled,
		Sampled: sampled,
		Min:     buf[0],
		Mean:    sum / float64(len(buf)),
		P50:     quantileSorted(buf, 0.5),
		P90:     quantileSorted(buf, 0.9),
		P99:     quantileSorted(buf, 0.99),
		Max:     buf[len(buf)-1],
	}
}

// quantileSorted interpolates the q-quantile of a sorted non-empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (t *Timer) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last = summarize(t.buf, t.sampled)
	t.buf = t.buf[:0]
	t.sampled = 0
}

// CounterSnapshot reports one counter: the cumulative total and the delta of
// the last completed flush interval.
type CounterSnapshot struct {
	Total    uint64 `json:"total"`
	Interval uint64 `json:"interval"`
}

// TimerSnapshot reports one timer: the cumulative observation count and the
// last completed interval's order statistics.
type TimerSnapshot struct {
	Total    uint64     `json:"total"`
	Interval TimerStats `json:"interval"`
}

// RuntimeStats are point-in-time Go runtime / process stats.
type RuntimeStats struct {
	Goroutines     int    `json:"goroutines"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"num_cpu"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	TotalAlloc     uint64 `json:"total_alloc_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// Snapshot is one coherent read of the registry, shaped for JSON rendering
// on a /metrics endpoint.
type Snapshot struct {
	UptimeSeconds   float64                    `json:"uptime_s"`
	IntervalSeconds float64                    `json:"interval_s"`
	FlushAgeSeconds float64                    `json:"flush_age_s"`
	Counters        map[string]CounterSnapshot `json:"counters"`
	Gauges          map[string]float64         `json:"gauges"`
	Timers          map[string]TimerSnapshot   `json:"timers"`
	Runtime         RuntimeStats               `json:"runtime"`
}

// Snapshot captures every metric's current totals and last-interval
// aggregates, plus runtime stats.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		UptimeSeconds:   time.Since(r.start).Seconds(),
		IntervalSeconds: r.interval.Seconds(),
		FlushAgeSeconds: time.Since(r.flushed).Seconds(),
		Counters:        make(map[string]CounterSnapshot, len(r.counters)),
		Gauges:          make(map[string]float64, len(r.gauges)),
		Timers:          make(map[string]TimerSnapshot, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = CounterSnapshot{Total: c.total.Load(), Interval: c.last.Load()}
	}
	for name, g := range r.gauges {
		// An unset gauge (NaN) is omitted rather than rendered: NaN is not
		// representable in JSON and "no value yet" is what absence means.
		if v := g.Value(); !math.IsNaN(v) {
			s.Gauges[name] = v
		}
	}
	for name, t := range r.timers {
		t.mu.Lock()
		s.Timers[name] = TimerSnapshot{Total: t.count, Interval: t.last}
		t.mu.Unlock()
	}
	r.mu.Unlock()

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.Runtime = RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		HeapAllocBytes: mem.HeapAlloc,
		HeapSysBytes:   mem.HeapSys,
		TotalAlloc:     mem.TotalAlloc,
		NumGC:          mem.NumGC,
	}
	return s
}

// AttachMonitor wires a sweep.Monitor into the registry: every completed
// sweep job counts into the "sweep.jobs" counter and times into the
// "sweep.job" timer, and the done/total progress lands in the
// "sweep.jobs_done"/"sweep.jobs_total" gauges. It overwrites the monitor's
// OnJob/OnChange hooks, so attach before handing the monitor to any run.
func AttachMonitor(r *Registry, m *sweep.Monitor) {
	jobs := r.Counter("sweep.jobs")
	timer := r.Timer("sweep.job")
	done := r.Gauge("sweep.jobs_done")
	total := r.Gauge("sweep.jobs_total")
	m.OnJob = func(d time.Duration) {
		jobs.Inc()
		timer.Observe(d)
	}
	m.OnChange = func(d, t int64) {
		done.Set(float64(d))
		total.Set(float64(t))
	}
}
