package sweep

import (
	"sync"
	"time"
)

// Monitor aggregates live progress over one or more runs: how many
// jobs have finished out of how many submitted, and how long each took.
// Attach one via Options.Monitor (typically the same Monitor across every
// batch of a suite) and poll Progress, or set OnChange for push updates.
// A Monitor keeps each job's duration for Durations only while OnJob is
// unset; with OnJob set, the hook is the durations' only consumer, so a
// long-lived monitor's memory stays constant.
type Monitor struct {
	// OnChange, when non-nil, is called with the updated counters after
	// every completed job. It runs on worker goroutines: keep it cheap and
	// concurrency-safe. Set it before the first run.
	OnChange func(done, total int64)

	// OnJob, when non-nil, is called with each completed job's wall time,
	// before OnChange. Same rules: worker goroutines, keep it cheap and
	// concurrency-safe, set it before the first run. The telemetry layer
	// uses it to stream per-job timings into its flush-interval timers.
	OnJob func(d time.Duration)

	mu      sync.Mutex
	notify  sync.Mutex // serializes OnChange calls; see jobDone
	done    int64
	total   int64
	seconds []float64
}

// add registers n newly submitted jobs.
func (m *Monitor) add(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.total += int64(n)
	m.mu.Unlock()
}

// jobDone records one finished job and its wall time.
func (m *Monitor) jobDone(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.done++
	onJob := m.OnJob
	if onJob == nil {
		m.seconds = append(m.seconds, d.Seconds())
	}
	cb := m.OnChange
	m.mu.Unlock()
	if onJob != nil {
		onJob(d)
	}
	if cb != nil {
		// Each call reads the counters afresh under notify, so calls carry
		// non-decreasing counts and the last one sees the final totals; a
		// snapshot taken before the call could arrive after a newer one.
		m.notify.Lock()
		cb(m.Progress())
		m.notify.Unlock()
	}
}

// Progress returns jobs finished and jobs submitted so far.
func (m *Monitor) Progress() (done, total int64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done, m.total
}

// Durations returns a copy of the per-job wall times in seconds, in
// completion order — ready for analysis.Summarize. It is empty when OnJob
// is set.
func (m *Monitor) Durations() []float64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(m.seconds))
	copy(out, m.seconds)
	return out
}
