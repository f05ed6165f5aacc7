package sweep

import (
	"runtime"
	"sync"
)

// Pool is a set of long-lived workers that concurrent runs share, so a
// whole experiment suite is bounded by one worker budget instead of one
// per grid: with RunAllCfg handing every grid to one Pool, "-workers N" is
// an exact process-wide cap while cheap experiments overlap the long ones.
// A run hands its claim loop to at most min(pool size, owned jobs) workers,
// one hand-off each, and stops handing off once a worker finds nothing left
// to claim. A worker stays on one run until that run has no unclaimed index
// (or has failed), then takes the next hand-off. Results are identical on
// any executor, since job i draws from (BaseSeed, i) and writes only slot
// i.
//
// Jobs must not start runs on their own pool: a job waiting for workers
// that are all busy with jobs like itself deadlocks. The experiment
// layer's jobs are leaf simulations, which keeps the rule trivially
// satisfied.
type Pool struct {
	runs    chan *claims
	wg      sync.WaitGroup
	workers int
	once    sync.Once
}

// NewPool starts a pool of the given size; 0 or less selects
// runtime.GOMAXPROCS(0). Close it when the last run has returned.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{runs: make(chan *claims), workers: workers}
	p.wg.Add(workers)
	for range workers {
		go func() {
			defer p.wg.Done()
			for c := range p.runs {
				c.work()
				if c.left.Add(1) == 1 {
					close(c.exited)
				}
				c.wg.Done()
			}
		}()
	}
	return p
}

// run hands c to the pool's workers and returns when every worker that
// took it has left its claim loop.
func (p *Pool) run(c *claims) {
	c.exited = make(chan struct{})
	for range min(int64(p.workers), c.owned) {
		c.wg.Add(1)
		select {
		case p.runs <- c:
			continue
		case <-c.exited:
		}
		c.wg.Done()
		break
	}
	c.wg.Wait()
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers. No run using this pool may still be in flight.
// Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.runs)
		p.wg.Wait()
	})
}
