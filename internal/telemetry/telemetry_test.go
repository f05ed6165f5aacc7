package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/sampler"
	"repro/internal/sweep"
)

func TestCounterFlushRotation(t *testing.T) {
	r := NewRegistry(time.Hour) // flushed manually
	c := r.Counter("reqs")
	c.Add(3)
	c.Inc()

	s := r.Snapshot()
	if got := s.Counters["reqs"]; got.Total != 4 || got.Interval != 0 {
		t.Errorf("before flush: %+v, want total 4, interval 0 (no interval completed yet)", got)
	}
	r.Flush()
	c.Add(10)
	s = r.Snapshot()
	if got := s.Counters["reqs"]; got.Total != 14 || got.Interval != 4 {
		t.Errorf("after flush: %+v, want total 14, last interval 4", got)
	}
	r.Flush()
	s = r.Snapshot()
	if got := s.Counters["reqs"]; got.Total != 14 || got.Interval != 10 {
		t.Errorf("second flush: %+v, want total 14, last interval 10", got)
	}
}

func TestGaugeLastValue(t *testing.T) {
	r := NewRegistry(0)
	g := r.Gauge("depth")
	if v := g.Value(); !math.IsNaN(v) {
		t.Errorf("unset gauge = %v, want NaN", v)
	}
	if _, ok := r.Snapshot().Gauges["depth"]; ok {
		t.Error("unset gauge should be absent from the snapshot (NaN is not JSON)")
	}
	g.Set(3)
	g.Set(7)
	if v := r.Snapshot().Gauges["depth"]; v != 7 {
		t.Errorf("gauge = %v, want last value 7", v)
	}
}

func TestTimerIntervalStats(t *testing.T) {
	r := NewRegistry(time.Hour)
	tm := r.Timer("lat")
	for _, ms := range []int{10, 20, 30, 40} {
		tm.Observe(time.Duration(ms) * time.Millisecond)
	}
	r.Flush()
	snap := r.Snapshot().Timers["lat"]
	if snap.Total != 4 || snap.Interval.Count != 4 {
		t.Fatalf("counts %+v, want 4/4", snap)
	}
	iv := snap.Interval
	if iv.Min != 0.010 || iv.Max != 0.040 {
		t.Errorf("min/max = %v/%v, want 0.01/0.04", iv.Min, iv.Max)
	}
	if math.Abs(iv.Mean-0.025) > 1e-12 {
		t.Errorf("mean = %v, want 0.025", iv.Mean)
	}
	if math.Abs(iv.P50-0.025) > 1e-12 {
		t.Errorf("p50 = %v, want 0.025", iv.P50)
	}
	if iv.P99 <= iv.P50 || iv.P99 > iv.Max {
		t.Errorf("p99 = %v, want within (p50, max]", iv.P99)
	}
	// The flush cleared the buffer: a second flush with no observations
	// reports an empty interval but the same cumulative count.
	r.Flush()
	snap = r.Snapshot().Timers["lat"]
	if snap.Total != 4 || snap.Interval.Count != 0 {
		t.Errorf("after idle interval: %+v, want total 4, interval count 0", snap)
	}
}

func TestTimerBufferCap(t *testing.T) {
	r := NewRegistry(time.Hour)
	tm := r.Timer("hot")
	for i := 0; i < timerBufCap+100; i++ {
		tm.Observe(time.Millisecond)
	}
	r.Flush()
	snap := r.Snapshot().Timers["hot"]
	if snap.Total != timerBufCap+100 {
		t.Errorf("total %d, want every observation counted", snap.Total)
	}
	if snap.Interval.Count != timerBufCap+100 || snap.Interval.Sampled != 100 {
		t.Errorf("interval %+v, want count %d with 100 sampled out", snap.Interval, timerBufCap+100)
	}
}

// TestRegistryConcurrent exercises the locking under -race: concurrent
// writers, flushers, and scrapers on shared metric handles.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("reqs")
			g := r.Gauge("depth")
			tm := r.Timer("lat")
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				tm.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Flush()
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	r.Flush()
	s := r.Snapshot()
	if s.Counters["reqs"].Total != 8*500 {
		t.Errorf("total %d, want %d", s.Counters["reqs"].Total, 8*500)
	}
	if s.Timers["lat"].Total != 8*500 {
		t.Errorf("timer total %d, want %d", s.Timers["lat"].Total, 8*500)
	}
	if s.Runtime.Goroutines <= 0 || s.Runtime.NumCPU <= 0 {
		t.Errorf("runtime stats missing: %+v", s.Runtime)
	}
}

// TestAttachMonitor wires a sweep through an attached monitor and checks the
// jobs counter, job timer, and progress gauges all moved.
func TestAttachMonitor(t *testing.T) {
	r := NewRegistry(time.Hour)
	mon := &sweep.Monitor{}
	AttachMonitor(r, mon)
	_, err := sweep.RunSampled(10, func(i int, _ sampler.Draws) (int, error) {
		return i, nil
	}, sweep.Options{Workers: 2, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	r.Flush()
	s := r.Snapshot()
	if got := s.Counters["sweep.jobs"].Total; got != 10 {
		t.Errorf("sweep.jobs = %d, want 10", got)
	}
	if got := s.Timers["sweep.job"].Total; got != 10 {
		t.Errorf("sweep.job timer count = %d, want 10", got)
	}
	if s.Gauges["sweep.jobs_done"] != 10 || s.Gauges["sweep.jobs_total"] != 10 {
		t.Errorf("progress gauges = %v/%v, want 10/10",
			s.Gauges["sweep.jobs_done"], s.Gauges["sweep.jobs_total"])
	}
}
