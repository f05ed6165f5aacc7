package sweep

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Shard selects one slice of a K-way distributed run: shard I of K owns the
// job indices i with i % K == I (a stride partition, which balances cost
// even when job expense varies smoothly with index). The per-job RNG
// derivation is untouched — job i draws from (BaseSeed, i) whether the whole
// batch runs in one process or its shards run on K machines — so every job's
// result is byte-stable across any partition.
//
// The zero value (and any Count ≤ 1) owns every job: a non-sharded run is
// just shard 0 of 1.
type Shard struct {
	Index, Count int
}

// ParseShard parses the command-line form "I/K" (zero-based: the shards of
// a 3-way run are 0/3, 1/3, 2/3).
func ParseShard(spec string) (Shard, error) {
	is, ks, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: want I/K (e.g. 0/3)", spec)
	}
	i, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: bad index: %w", spec, err)
	}
	k, err := strconv.Atoi(strings.TrimSpace(ks))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: bad count: %w", spec, err)
	}
	if k < 1 {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: count must be ≥ 1", spec)
	}
	s := Shard{Index: i, Count: k}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// Validate reports whether the shard is well-formed: either the zero value
// or 0 ≤ Index < Count.
func (s Shard) Validate() error {
	if s == (Shard{}) {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("sweep: shard %d/%d: count must be ≥ 1", s.Index, s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: shard %d/%d: index must be in [0, %d)", s.Index, s.Count, s.Count)
	}
	return nil
}

// Owns reports whether job index i belongs to this shard.
func (s Shard) Owns(i int) bool {
	if s.Count <= 1 {
		return true
	}
	return i%s.Count == s.Index
}

// nth returns the k-th job index (from 0) this shard owns.
func (s Shard) nth(k int) int {
	if s.Count <= 1 {
		return k
	}
	return s.Index + k*s.Count
}

// CountIn returns how many of the job indices [0, n) this shard owns.
func (s Shard) CountIn(n int) int {
	if n <= 0 {
		return 0
	}
	if s.Count <= 1 {
		return n
	}
	// Owned indices are Index, Index+Count, ... below n.
	if s.Index >= n {
		return 0
	}
	return (n-1-s.Index)/s.Count + 1
}

// String renders the shard back into ParseShard's form.
func (s Shard) String() string {
	k := s.Count
	if k < 1 {
		k = 1
	}
	return fmt.Sprintf("%d/%d", s.Index, k)
}

// Exchange persists per-job results across process boundaries: a sharded
// run Records the encoding of every job it executes, and a merge run serves
// Lookups from the union of the shards' records instead of re-executing the
// jobs. Batch names a single run within a larger workload (the
// experiment suite runs many sweeps; each gets a distinct, deterministic
// batch ID), and index is the job's dense index within that batch.
//
// An exchange is an accelerator, never a source of truth: a missing or
// damaged record simply makes the job compute locally, which reproduces the
// identical result from its (BaseSeed, index) RNG. Implementations must be
// safe for concurrent use.
type Exchange interface {
	// Lookup returns the recorded encoding of job index of batch, if any.
	Lookup(batch string, index int) ([]byte, bool)
	// Record stores the encoding of a freshly computed job result.
	Record(batch string, index int, value []byte)
}

// roundTrips reports whether v survives a JSON round trip bit-exactly, and
// returns its encoding when it does. Only such values are recorded into an
// Exchange: a result type JSON cannot carry exactly (unexported fields,
// NaN/Inf, int-vs-float formatting through interface{}) degrades to local
// recomputation at merge time instead of corrupting the merged output.
func roundTrips[T any](v T) ([]byte, bool) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	var back T
	if err := json.Unmarshal(raw, &back); err != nil {
		return nil, false
	}
	if !reflect.DeepEqual(v, back) {
		return nil, false
	}
	return raw, true
}
