package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/sampler"
	"repro/internal/sweep"
)

// Distributed shard/merge execution. A K-way run splits every sweep's dense
// job index space across K independent processes (sweep.Shard's stride
// partition); each process executes only its own jobs and serializes their
// results into a shard file; a merge run loads the union of the shard files
// and is served every job instead of executing it, so the merged tables are
// byte-identical to a single-process run. The per-job RNG derivation
// (BaseSeed, index) never changes, so a job's result does not depend on
// which process ran it — and a lost or damaged record merely recomputes
// locally to the same bytes.
//
// The interchange format is the internal/cache JSON-lines disk layer: one
// JSON document per line, written atomically. The first line carries the
// run's fingerprint (ShardMeta); every other line is one job record keyed
// by (batch, index), where the batch name ("E3#0") identifies one sweep
// call of one experiment deterministically.

// ShardFormat identifies the shard-file layout this package writes and
// accepts. It also versions the records' arithmetic: v2 marks results
// computed with the equal-ω arc×arc closed form in internal/motion (see
// cache.ResultVersion), so LoadShards refuses to merge a v1 shard, whose
// records carry the older low bits, into a v2 run.
const ShardFormat = "repro-shard-v2"

// ShardMeta is the first line of a shard file: the fingerprint of the run
// that produced it. Merging files whose fingerprints disagree (different
// seeds, samples, or workload scope) would silently mix incompatible job
// records, so LoadShards rejects it.
type ShardMeta struct {
	Format  string `json:"format"`
	Shard   string `json:"shard"` // "I/K", see sweep.ParseShard
	Seed    int64  `json:"seed"`
	Samples int    `json:"samples"`
	// Sampler names the draw source of the run ("" ≡ "pseudo", so shard
	// files from before the sampler API — and all default runs — carry the
	// same bytes they always did). Mixing records produced under different
	// samplers would silently blend two different estimators.
	Sampler string `json:"sampler,omitempty"`
	Scope   string `json:"scope"` // see ShardScope
}

// ShardScope fingerprints the workload of an invocation: "suite" for the
// experiment suite (shards of a single-experiment run merge into full-suite
// runs and vice versa — batch names are per-experiment), or a canonical
// rendering of the grid axes and algorithm for a -grid sweep.
func ShardScope(gridSpecs []string, gridAlgo string) (string, error) {
	if len(gridSpecs) == 0 {
		return "suite", nil
	}
	grid, err := sweep.ParseGrid(gridSpecs...)
	if err != nil {
		return "", err
	}
	axes := make([]string, len(grid))
	for i, ax := range grid {
		axes[i] = ax.String()
	}
	if gridAlgo == "" {
		gridAlgo = "search"
	}
	return "grid:" + gridAlgo + ":" + strings.Join(axes, " "), nil
}

// Meta returns the fingerprint a run under cfg writes into its shard file.
// The pseudo sampler is recorded as the empty string, keeping default-run
// shard files byte-identical to the pre-sampler format.
func (c Config) Meta(scope string) ShardMeta {
	m := ShardMeta{
		Format:  ShardFormat,
		Shard:   c.Shard.String(),
		Seed:    c.Seed,
		Samples: c.Samples,
		Scope:   scope,
	}
	if c.Sampler != sampler.Pseudo {
		m.Sampler = c.Sampler.String()
	}
	return m
}

// shardKey addresses one job record: the sweep call's deterministic batch
// name and the job's dense index within it.
type shardKey struct {
	batch string
	index int
}

// ShardStore is the in-memory exchange of per-job sweep results behind
// Config.Store: sharded runs record into it, merge runs are served from it.
// It implements sweep.Exchange and is safe for concurrent use.
type ShardStore struct {
	mu       sync.Mutex
	recs     map[shardKey]json.RawMessage
	served   int
	recorded int
}

// NewShardStore returns an empty store.
func NewShardStore() *ShardStore {
	return &ShardStore{recs: make(map[shardKey]json.RawMessage)}
}

// Lookup implements sweep.Exchange.
func (s *ShardStore) Lookup(batch string, index int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.recs[shardKey{batch, index}]
	if ok {
		s.served++
	}
	return raw, ok
}

// Record implements sweep.Exchange.
func (s *ShardStore) Record(batch string, index int, value []byte) {
	raw := make(json.RawMessage, len(value))
	copy(raw, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[shardKey{batch, index}] = raw
	s.recorded++
}

// Len returns the number of job records held.
func (s *ShardStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Served returns how many lookups were answered from the store — in a merge
// run, the number of jobs that did not have to re-execute.
func (s *ShardStore) Served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// Recorded returns how many jobs recorded their result since the store was
// created or loaded — in a merge run, the number of jobs that had to be
// recomputed locally because no shard carried them.
func (s *ShardStore) Recorded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded
}

// shardLine is one line of a shard file: either the leading meta line or a
// job record.
type shardLine struct {
	Meta *ShardMeta      `json:"meta,omitempty"`
	B    string          `json:"b,omitempty"`
	I    int             `json:"i"`
	V    json.RawMessage `json:"v,omitempty"`
}

// Save writes the store's records to the JSON-lines file at path — meta
// first, then the records sorted by (batch, index) so the file is
// deterministic for a given record set. It writes through a temporary file
// and an atomic rename (see cache.WriteJSONLines).
func (s *ShardStore) Save(path string, meta ShardMeta) error {
	s.mu.Lock()
	keys := make([]shardKey, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	lines := make([]shardLine, 0, len(keys))
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].batch != keys[b].batch {
			return keys[a].batch < keys[b].batch
		}
		return keys[a].index < keys[b].index
	})
	for _, k := range keys {
		lines = append(lines, shardLine{B: k.batch, I: k.index, V: s.recs[k]})
	}
	s.mu.Unlock()

	err := cache.WriteJSONLines(path, func(enc *json.Encoder) error {
		if err := enc.Encode(shardLine{Meta: &meta}); err != nil {
			return err
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("experiments: shard %w", err)
	}
	return nil
}

// LoadShards reads the union of the given shard files into one store for a
// merge run and returns their metas in argument order. Every file must
// lead with a ShardMeta line agreeing on format, seed, samples, scope, and
// shard count K — merging runs of different workloads (including runs
// sharded with different K values, e.g. a 0/2 file with a 1/3 file) is an
// error, not a silent mix. Missing shards (K files not all present) and
// damaged record lines are not errors: the merge recomputes those jobs
// locally to identical bytes, and a caller that wants to warn can check
// stride coverage through MergeSet.Complete/Missing. Duplicate records
// across files (identical by determinism) overwrite silently.
//
// LoadShards is the one-shot form of MergeSet, which additionally supports
// incremental ingestion for streaming merges.
func LoadShards(paths ...string) (*ShardStore, []ShardMeta, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("experiments: no shard files to merge")
	}
	m := NewMergeSet()
	for _, path := range paths {
		if _, err := m.Add(path); err != nil {
			return nil, nil, err
		}
	}
	return m.Store(), m.Metas(), nil
}

// readShardFile streams the shard file at path into store and returns its
// meta line. validate, when non-nil, is called with the meta before any
// record is folded in — returning an error aborts the read with the store
// untouched, which is what lets a MergeSet reject an incompatible file
// without polluting its live store. Damaged record lines are skipped (the
// merge recomputes those jobs locally).
func readShardFile(store *ShardStore, path string, validate func(ShardMeta) error) (*ShardMeta, error) {
	var meta *ShardMeta
	found, err := cache.ReadJSONLines(path, func(data []byte) error {
		var l shardLine
		if json.Unmarshal(data, &l) != nil {
			return nil // damaged line: the merge recomputes that job
		}
		if meta == nil {
			// The first line must identify the file; anything else is
			// not a shard file.
			if l.Meta == nil {
				return fmt.Errorf("experiments: %s: not a shard file (no meta line)", path)
			}
			if l.Meta.Format != ShardFormat {
				return fmt.Errorf("experiments: %s: format %q, want %q", path, l.Meta.Format, ShardFormat)
			}
			if _, err := sweep.ParseShard(l.Meta.Shard); err != nil {
				return fmt.Errorf("experiments: %s: %w", path, err)
			}
			if validate != nil {
				if err := validate(*l.Meta); err != nil {
					return fmt.Errorf("experiments: %s: %w", path, err)
				}
			}
			meta = l.Meta
			return nil
		}
		if l.Meta != nil {
			// A second meta line means two shard files were pasted together
			// (e.g. `cat a.jsonl b.jsonl`); folding the second file's records
			// in under the first file's validated fingerprint would be
			// exactly the silent workload mix this format exists to prevent.
			return fmt.Errorf("experiments: %s: multiple meta lines (concatenated shard files?); merge the original files instead", path)
		}
		if l.B == "" || l.V == nil {
			return nil // damaged or foreign line: skip
		}
		store.mu.Lock()
		store.recs[shardKey{l.B, l.I}] = l.V
		store.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("experiments: shard file %s does not exist", path)
	}
	if meta == nil {
		return nil, fmt.Errorf("experiments: %s: empty shard file", path)
	}
	return meta, nil
}

// normalizeSampler maps the omitted-field spelling of the pseudo sampler
// onto its name, so pre-sampler shard files merge with pseudo runs.
func normalizeSampler(name string) string {
	if name == "" {
		return sampler.Pseudo.String()
	}
	return name
}

// compatibleMetas reports why two shard files cannot merge, if they cannot.
func compatibleMetas(a, b ShardMeta) error {
	if a.Seed != b.Seed {
		return fmt.Errorf("seed %d conflicts with %d", b.Seed, a.Seed)
	}
	if a.Samples != b.Samples {
		return fmt.Errorf("samples %d conflicts with %d", b.Samples, a.Samples)
	}
	// "" and "pseudo" are the same sampler: old files omit the field.
	if normalizeSampler(a.Sampler) != normalizeSampler(b.Sampler) {
		return fmt.Errorf("sampler %q conflicts with %q", b.Sampler, a.Sampler)
	}
	if a.Scope != b.Scope {
		return fmt.Errorf("scope %q conflicts with %q", b.Scope, a.Scope)
	}
	sa, _ := sweep.ParseShard(a.Shard)
	sb, _ := sweep.ParseShard(b.Shard)
	if sa.Count != sb.Count {
		return fmt.Errorf("shard count %d conflicts with %d", sb.Count, sa.Count)
	}
	return nil
}
