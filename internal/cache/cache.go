// Package cache memoizes simulation results so that repeated sweeps — RunAll
// re-runs, overlapping grids, Monte-Carlo batches that revisit the same
// instances — are served from memory (or disk) instead of re-simulated.
//
// # Keys and canonicalization
//
// A cache entry is keyed by the canonical fingerprint of one simulation
// instance: the kind of simulation ("search", "rendezvous", "asym",
// "meeting"), the identity of the trajectory program(s), the quantized
// instance parameters (attributes {v, τ, φ, χ}, displacement, visibility
// radius), and the quantized simulation options (horizon, slack, iteration
// budget). Program identity is a caller-chosen string — e.g. "alg4" for
// Algorithm 4, "alg7" for the universal algorithm, "known:0.25" for a
// parameterised baseline — and must change whenever the generated trajectory
// does; two different programs sharing an identity would alias each other's
// results.
//
// # Result version
//
// Every key also carries ResultVersion, the version of the simulator's
// arithmetic. A change that moves result bits — a new closed form in
// internal/motion, say — bumps it, so records written by the older code
// (cache files, journals, shard caches, warm files) become misses instead
// of answering queries with results the current code would not produce.
// They still load, and age out of the LRU.
//
// # Float quantization
//
// Float parameters enter the key through Quantize, which clears the
// QuantBits least-significant bits of the float64 mantissa — a bucket spans
// 2^QuantBits ulps, i.e. up to 2^(QuantBits−52) ≈ 9.1e−13 relative (twice
// that just above a power of two) for QuantBits = 12. Values that agree
// more tightly than a bucket share an entry. The
// quantization is a pure truncation of the bit pattern: it never crosses a
// power of two, maps every float to a nearby representable float64, and
// keeps sign, infinity, and zero distinctions. The simulator is exact, so
// instances that differ by less than a bucket produce results that agree to
// the same precision as the parameters themselves; experiment grids space
// their parameters far coarser than a bucket, so collisions between
// *intentionally distinct* instances cannot occur there.
//
// All methods are safe for concurrent use; the compute-through helpers are
// additionally nil-receiver safe (a nil *Cache simply computes), so callers
// can thread an optional cache without branching, and they deduplicate
// concurrent identical computations (singleflight): when many workers miss
// on the same key at once, one simulates and the rest wait for its result.
package cache

import (
	"container/list"
	"encoding/json"
	"errors"
	"math"
	"sync"

	"repro/internal/chaos"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// QuantBits is the number of low-order mantissa bits cleared by Quantize:
// key buckets are 2^QuantBits ulps ≈ 9.1e−13 wide in relative terms.
const QuantBits = 12

// ResultVersion is the version of the simulator's arithmetic stamped into
// every key by the key constructors. Version 2: motion.Contact resolves
// equal-ω arc×arc intervals in closed form rather than by safe advance,
// which changes the low bits of those contact times.
const ResultVersion = 2

// DefaultCapacity is the LRU capacity selected by New(0): at ~100 bytes an
// entry, about 6 MB of results.
const DefaultCapacity = 1 << 16

// Quantize returns the bit pattern of x with the QuantBits least-significant
// mantissa bits cleared — the canonical representative of x's key bucket.
func Quantize(x float64) uint64 {
	const low = uint64(1)<<QuantBits - 1
	return math.Float64bits(x) &^ low
}

// Key is the canonical fingerprint of one simulation instance. Unused
// fields stay zero (e.g. attributes for a plain search). Keys are value
// types and valid map keys.
type Key struct {
	Version int    // ResultVersion of the code that computed the result
	Kind    string // "search", "rendezvous", "asym", "meeting"
	Program string // program identity; for two-program kinds "a|b"
	V       uint64 // quantized attribute bits of R′
	Tau     uint64
	Phi     uint64
	Chi     int
	DX, DY  uint64 // quantized displacement (or search target)
	R       uint64 // quantized visibility radius
	Horizon uint64 // quantized sim.Options
	Slack   uint64
	Iters   int
}

// SearchKey fingerprints a sim.Search call.
func SearchKey(program string, target geom.Vec, r float64, opt sim.Options) Key {
	return Key{
		Version: ResultVersion,
		Kind:    "search",
		Program: program,
		DX:      Quantize(target.X),
		DY:      Quantize(target.Y),
		R:       Quantize(r),
		Horizon: Quantize(opt.Horizon),
		Slack:   Quantize(opt.Slack),
		Iters:   opt.MaxIters,
	}
}

// RendezvousKey fingerprints a sim.Rendezvous call.
func RendezvousKey(program string, in sim.Instance, opt sim.Options) Key {
	k := instanceKey(in, opt)
	k.Kind, k.Program = "rendezvous", program
	return k
}

// AsymmetricKey fingerprints a sim.RendezvousAsymmetric call.
func AsymmetricKey(programA, programB string, in sim.Instance, opt sim.Options) Key {
	k := instanceKey(in, opt)
	k.Kind, k.Program = "asym", programA+"|"+programB
	return k
}

// MeetingKey fingerprints a sim.FirstMeeting call between two explicit
// global-frame trajectories. The id must identify both trajectories
// completely (programs, frames, displacements, fault schedules, ...): the
// key carries only the visibility radius and options beside it.
func MeetingKey(id string, r float64, opt sim.Options) Key {
	return Key{
		Version: ResultVersion,
		Kind:    "meeting",
		Program: id,
		R:       Quantize(r),
		Horizon: Quantize(opt.Horizon),
		Slack:   Quantize(opt.Slack),
		Iters:   opt.MaxIters,
	}
}

func instanceKey(in sim.Instance, opt sim.Options) Key {
	return Key{
		Version: ResultVersion,
		V:       Quantize(in.Attrs.V),
		Tau:     Quantize(in.Attrs.Tau),
		Phi:     Quantize(in.Attrs.Phi),
		Chi:     int(in.Attrs.Chi),
		DX:      Quantize(in.D.X),
		DY:      Quantize(in.D.Y),
		R:       Quantize(in.R),
		Horizon: Quantize(opt.Horizon),
		Slack:   Quantize(opt.Slack),
		Iters:   opt.MaxIters,
	}
}

// Cache is a concurrency-safe LRU memoizer of simulation results with an
// optional on-disk layer (see Open). The compute-through helpers
// additionally deduplicate in-flight computations (singleflight): when
// several workers miss on the same key concurrently — a warm-up sweep at a
// high worker count hitting one hot cell — only the first simulates; the
// rest wait for its result instead of re-simulating before the Put lands.
type Cache struct {
	mu sync.Mutex
	// The counters live under mu, incremented in the same critical section
	// as the map operation they describe, so a Stats snapshot is coherent:
	// hits + misses == lookups holds at every instant, not just at rest.
	// (They used to be independent atomics bumped outside the lock — a
	// /metrics scrape racing a lookup could observe counters that don't add
	// up; see TestStatsCoherentUnderLoad.)
	lookups, hits, misses, dedups uint64
	// corrupt counts damaged disk-layer lines observed (and skipped or
	// truncated) by Merge/Open and the journal replay: recovery after a
	// crash is loss-bounded and *accounted*, never silent.
	corrupt uint64
	cap     int
	ll      *list.List // front = most recently used
	index   map[Key]*list.Element
	flight  map[Key]*flightCall // in-flight compute-through calls
	path    string              // "" = memory only
	// jour is the append-only durability journal between snapshot flushes;
	// non-nil only for disk-backed caches built by Open. Guarded by mu.
	jour *journal
	// chaos, when non-nil, is the deterministic fault injector the save and
	// journal paths thread through (see internal/chaos). Guarded by mu.
	chaos *chaos.Injector

	// saveMu serializes Save/SaveAs flushes: a long-running process flushes
	// periodically and again on shutdown, and overlapping writers to one
	// path must not interleave their temp-file/rename dances.
	saveMu sync.Mutex
}

type entry struct {
	key Key
	res sim.Result
}

// flightCall is one in-flight computation: the leader closes done once res
// and err are final, and every waiter reads them afterwards.
type flightCall struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// New returns an in-memory cache holding at most capacity results
// (capacity ≤ 0 selects DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:    capacity,
		ll:     list.New(),
		index:  make(map[Key]*list.Element),
		flight: make(map[Key]*flightCall),
	}
}

// Get returns the cached result for k, marking it most recently used.
// A nil receiver always misses without counting.
func (c *Cache) Get(k Key) (sim.Result, bool) {
	if c == nil {
		return sim.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	el, ok := c.index[k]
	if !ok {
		c.misses++
		return sim.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).res, true
}

// Put stores the result for k, evicting the least recently used entry when
// the cache is full. On a disk-backed cache the entry is also appended to
// the durability journal, so a crash before the next snapshot flush loses
// at most the unflushed journal tail (see JournalWindow). A nil receiver is
// a no-op.
func (c *Cache) Put(k Key, res sim.Result) {
	c.put(k, res, true)
}

// put is Put with the journal append optional: loads (Merge, journal
// replay) must not re-journal the records they read back.
func (c *Cache) put(k Key, res sim.Result, journal bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if journal && c.jour != nil {
		if payload, err := json.Marshal(diskEntry{K: k, R: res}); err == nil {
			c.jour.append(appendRecord(nil, payload), c.chaos)
		}
	}
	if el, ok := c.index[k]; ok {
		el.Value.(*entry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.index[k] = c.ll.PushFront(&entry{key: k, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*entry).key)
	}
}

// SetChaos installs a deterministic fault injector on the disk layer's
// write paths (snapshot save and journal append) — the seam cmd/chaoscheck
// and the rvserved -chaos flag use. A nil injector (the default) costs
// nothing. Safe to call concurrently with any other method; nil receivers
// are a no-op.
func (c *Cache) SetChaos(inj *chaos.Injector) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chaos = inj
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a coherent point-in-time snapshot of the cache counters, taken
// in one critical section: Hits + Misses == Lookups holds in every snapshot,
// however many lookups are racing the scrape. Dedups counts compute-through
// calls that joined an in-flight identical computation instead of simulating
// (each also counted one miss when it looked up). Corrupt counts damaged
// disk-layer lines skipped by Merge/Open and torn journal tails truncated
// during recovery — zero on a healthy store.
type Stats struct {
	Lookups, Hits, Misses, Dedups uint64
	Corrupt                       uint64
	Len, Cap                      int
}

// Stats returns the current lookup/hit/miss/dedup counters and occupancy as
// one coherent snapshot. A nil receiver reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Lookups: c.lookups, Hits: c.hits, Misses: c.misses, Dedups: c.dedups,
		Corrupt: c.corrupt,
		Len:     c.ll.Len(), Cap: c.cap,
	}
}

// errFlightAborted is the sentinel a follower observes when the leader's
// computation ended without recording a result (e.g. a panic unwound it);
// the follower then computes independently.
var errFlightAborted = errors.New("cache: in-flight computation aborted")

// do returns the result for k, computing it through compute at most once
// across concurrent callers: the first miss becomes the leader and
// simulates; followers that miss on the same key while the leader is in
// flight wait for its result instead of re-simulating. A leader error is
// not shared — errors always propagate from a fresh computation, so every
// follower recomputes and observes the (deterministic) error itself. A nil
// receiver computes directly.
//
// The lookup — index check, flight check, counter updates — happens in one
// critical section, so every do call counts exactly one of hit/miss (plus a
// dedup for followers) and a concurrent Stats snapshot always adds up.
func (c *Cache) do(k Key, compute func() (sim.Result, error)) (sim.Result, error) {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	c.lookups++
	if el, ok := c.index[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		res := el.Value.(*entry).res
		c.mu.Unlock()
		return res, nil
	}
	c.misses++
	if call, ok := c.flight[k]; ok {
		c.dedups++
		c.mu.Unlock()
		<-call.done
		if call.err == nil {
			return call.res, nil
		}
		return compute()
	}
	call := &flightCall{done: make(chan struct{}), err: errFlightAborted}
	c.flight[k] = call
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.flight, k)
		c.mu.Unlock()
		close(call.done)
	}()
	call.res, call.err = compute()
	if call.err == nil {
		c.Put(k, call.res)
	}
	return call.res, call.err
}

// Search is sim.Search memoized under SearchKey. Only successful results
// are cached; errors always propagate from a fresh computation. Concurrent
// identical calls simulate once (see do).
func (c *Cache) Search(program string, mk func() trajectory.Source, target geom.Vec, r float64, opt sim.Options) (sim.Result, error) {
	if c == nil {
		return sim.Search(mk(), target, r, opt)
	}
	return c.do(SearchKey(program, target, r, opt), func() (sim.Result, error) {
		return sim.Search(mk(), target, r, opt)
	})
}

// Rendezvous is sim.Rendezvous memoized under RendezvousKey.
func (c *Cache) Rendezvous(program string, mk func() trajectory.Source, in sim.Instance, opt sim.Options) (sim.Result, error) {
	if c == nil {
		return sim.Rendezvous(mk(), in, opt)
	}
	return c.do(RendezvousKey(program, in, opt), func() (sim.Result, error) {
		return sim.Rendezvous(mk(), in, opt)
	})
}

// Asymmetric is sim.RendezvousAsymmetric memoized under AsymmetricKey.
func (c *Cache) Asymmetric(programA, programB string, mkA, mkB func() trajectory.Source, in sim.Instance, opt sim.Options) (sim.Result, error) {
	if c == nil {
		return sim.RendezvousAsymmetric(mkA(), mkB(), in, opt)
	}
	return c.do(AsymmetricKey(programA, programB, in, opt), func() (sim.Result, error) {
		return sim.RendezvousAsymmetric(mkA(), mkB(), in, opt)
	})
}

// FirstMeeting is sim.FirstMeeting memoized under MeetingKey. The id must
// identify both trajectories completely — see MeetingKey.
func (c *Cache) FirstMeeting(id string, mkA, mkB func() trajectory.Source, r float64, opt sim.Options) (sim.Result, error) {
	if c == nil {
		return sim.FirstMeeting(mkA(), mkB(), r, opt)
	}
	return c.do(MeetingKey(id, r, opt), func() (sim.Result, error) {
		return sim.FirstMeeting(mkA(), mkB(), r, opt)
	})
}
