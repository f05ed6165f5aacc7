package experiments

import (
	"fmt"

	"repro/internal/sweep"
)

// MergeSet accumulates shard record files one at a time for a streaming
// merge: a collector watching a directory can Add each file as it lands,
// poll Complete to learn when every stride of the K-way partition is
// covered, and then run the merge from Store without ever having waited for
// the slowest producer's sibling files. Each Add validates the file's meta
// against the first one ingested — format, seed, samples, scope, and shard
// count K must all agree — and folds a file's records into the live store
// only once the whole file has read cleanly, so an incompatible or
// malformed file is rejected without corrupting an in-progress merge. LoadShards is the one-shot convenience wrapper over a MergeSet.
//
// A MergeSet is not safe for concurrent use: one goroutine ingests. (The
// returned store is itself concurrency-safe, as a merge run requires.)
type MergeSet struct {
	store   *ShardStore
	metas   []ShardMeta
	covered []bool // by stride index; nil until the first Add fixes K
}

// NewMergeSet returns an empty set backed by a fresh store.
func NewMergeSet() *MergeSet {
	return &MergeSet{store: NewShardStore()}
}

// Add ingests one shard record file. The first file fixes the expected
// fingerprint (seed, samples, scope, K); any later file whose meta disagrees
// is rejected with an error that names the conflict, and contributes
// nothing. Adding the same shard index twice is allowed — byte-identical
// records by determinism, so duplicates overwrite silently.
func (m *MergeSet) Add(path string) (ShardMeta, error) {
	meta, err := readShardFile(m.store, path, func(mt ShardMeta) error {
		if len(m.metas) > 0 {
			return compatibleMetas(m.metas[0], mt)
		}
		return nil
	})
	if err != nil {
		return ShardMeta{}, err
	}
	s, err := sweep.ParseShard(meta.Shard)
	if err != nil {
		// Unreachable: readShardFile validated the spec.
		return ShardMeta{}, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if m.covered == nil {
		m.covered = make([]bool, s.Count)
	}
	m.covered[s.Index] = true
	m.metas = append(m.metas, *meta)
	return *meta, nil
}

// Store returns the live store holding the union of every ingested file's
// records. Hand it to Config.Store once ingestion is done (or has gone on
// long enough).
func (m *MergeSet) Store() *ShardStore { return m.store }

// Metas returns the metas of the ingested files, in Add order.
func (m *MergeSet) Metas() []ShardMeta { return m.metas }

// Len returns how many files have been ingested.
func (m *MergeSet) Len() int { return len(m.metas) }

// K returns the shard count the first ingested file fixed, or 0 before any
// Add succeeded.
func (m *MergeSet) K() int { return len(m.covered) }

// Complete reports whether every stride 0..K-1 of the partition is covered
// by at least one ingested file — the moment a streaming merge can render.
// It is false until the first Add succeeds.
func (m *MergeSet) Complete() bool {
	if m.covered == nil {
		return false
	}
	for _, p := range m.covered {
		if !p {
			return false
		}
	}
	return true
}

// Missing returns the uncovered shard specs ("I/K"), for the
// proceeding-anyway warning — those strides' jobs recompute locally.
func (m *MergeSet) Missing() []string {
	var missing []string
	for i, p := range m.covered {
		if !p {
			missing = append(missing, fmt.Sprintf("%d/%d", i, len(m.covered)))
		}
	}
	return missing
}
