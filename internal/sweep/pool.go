package sweep

import (
	"runtime"
	"sync"
)

// Pool is a shared worker pool that several runs — typically one per
// experiment grid — feed concurrently, so a whole experiment suite is
// bounded by a single worker budget instead of one budget per grid. Without
// a pool each run spins up its own goroutines, which keeps the cap per
// batch; with RunAllCfg submitting every grid to one Pool, "-workers N" is
// an exact process-wide cap while cheap experiments overlap the long ones.
//
// Determinism is unaffected: job i of a batch still receives the RNG
// derived from (BaseSeed, i) and writes only slot i, so results are
// identical whether a batch runs on its own goroutines, a private pool, or
// a pool shared with other batches.
//
// Jobs must not submit to their own pool (a job blocking on a full pool it
// is supposed to drain deadlocks); the experiment layer's jobs are leaf
// simulations, which keeps the rule trivially satisfied.
type Pool struct {
	jobs    chan func()
	wg      sync.WaitGroup
	workers int
	once    sync.Once
}

// NewPool starts a pool of the given size; 0 or less selects
// runtime.GOMAXPROCS(0). Close it when the last batch has returned.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func()), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers after every submitted job has finished. No Run
// using this pool may still be in flight. Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}
