package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// shardRunners is a representative, cheap subset of the suite used by the
// shard/merge identity tests: row-shaped jobs (E2, E3, E6, A1) and E5's
// [2]float64 per-round jobs.
func shardRunners() []Runner {
	return []Runner{
		{"E2", E2DurationsCfg},
		{"E3", E3SameChiralityCfg},
		{"E5", func(cfg Config) (Table, error) { return E5PhaseScheduleCfg(12, cfg) }},
		{"E6", E6OverlapCfg},
		{"A1", A1FixedStepDetectorCfg},
	}
}

// runShardsAndMerge executes the suite subset as K independent sharded
// runs, saves each shard through the disk format, loads their union, and
// returns the merged rendering plus the merge store for inspection.
func runShardsAndMerge(t *testing.T, base Config, k int, freshCache bool) (string, *ShardStore) {
	t.Helper()
	dir := t.TempDir()
	scope, err := ShardScope(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	files := make([]string, k)
	for idx := 0; idx < k; idx++ {
		cfg := base
		if freshCache {
			cfg.Cache = cache.New(0)
		}
		cfg.Shard = sweep.Shard{Index: idx, Count: k}
		cfg.Store = NewShardStore()
		if err := runAll(io.Discard, false, cfg, shardRunners()); err != nil {
			t.Fatalf("shard %d/%d: %v", idx, k, err)
		}
		files[idx] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", idx))
		if err := cfg.Store.Save(files[idx], cfg.Meta(scope)); err != nil {
			t.Fatal(err)
		}
	}
	ms := NewMergeSet()
	for _, f := range files {
		if _, err := ms.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if ms.K() != k {
		t.Fatalf("coverage K = %d, want %d", ms.K(), k)
	}
	if !ms.Complete() {
		t.Fatalf("shards %v missing from coverage", ms.Missing())
	}
	mcfg := base
	if freshCache {
		mcfg.Cache = cache.New(0)
	}
	mcfg.Store = ms.Store()
	var buf bytes.Buffer
	if err := runAll(&buf, false, mcfg, shardRunners()); err != nil {
		t.Fatalf("merge of %d shards: %v", k, err)
	}
	return buf.String(), ms.Store()
}

// TestShardMergeByteIdentity is the tentpole acceptance test: the merge of
// K sharded runs renders byte-identically to the single-process run for
// K ∈ {1, 2, 3, 7}, serial and parallel workers, cache off and on — and the
// merge serves every job from the shard records (zero local recomputation).
func TestShardMergeByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 8} {
		base := Config{Workers: workers, Seed: 7}
		var want bytes.Buffer
		if err := runAll(&want, false, base, shardRunners()); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 7} {
			for _, useCache := range []bool{false, true} {
				name := fmt.Sprintf("K=%d workers=%d cache=%v", k, workers, useCache)
				got, store := runShardsAndMerge(t, base, k, useCache)
				if got != want.String() {
					t.Errorf("%s: merged output differs from the single-process run", name)
				}
				if n := store.Recorded(); n != 0 {
					t.Errorf("%s: merge recomputed %d jobs locally", name, n)
				}
				if store.Served() == 0 {
					t.Errorf("%s: merge served no jobs from the shard records", name)
				}
			}
		}
	}
}

// TestShardMergeGrid: a CLI-style grid sweep shards and merges
// byte-identically, including under Monte-Carlo sampling.
func TestShardMergeGrid(t *testing.T) {
	specs := []string{"v=0.25,0.5,0.75", "phi=0:2:1"}
	base := Config{Workers: 4, Seed: 5, Samples: 3}
	var want bytes.Buffer
	if err := RunGridCfg(&want, false, specs, "search", base); err != nil {
		t.Fatal(err)
	}
	scope, err := ShardScope(specs, "search")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(scope, "grid:search:") {
		t.Fatalf("grid scope = %q", scope)
	}
	const k = 3
	dir := t.TempDir()
	files := make([]string, k)
	for idx := 0; idx < k; idx++ {
		cfg := base
		cfg.Shard = sweep.Shard{Index: idx, Count: k}
		cfg.Store = NewShardStore()
		if err := RunGridCfg(io.Discard, false, specs, "search", cfg); err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
		files[idx] = filepath.Join(dir, fmt.Sprintf("grid-%d.jsonl", idx))
		if err := cfg.Store.Save(files[idx], cfg.Meta(scope)); err != nil {
			t.Fatal(err)
		}
	}
	store, _, err := LoadShards(files...)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := base
	mcfg.Store = store
	var got bytes.Buffer
	if err := RunGridCfg(&got, false, specs, "search", mcfg); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("merged grid output differs from the single-process run")
	}
	if n := store.Recorded(); n != 0 {
		t.Errorf("grid merge recomputed %d jobs locally", n)
	}
}

// TestShardMergeDamagedAndMissing: a corrupted record line and a whole
// missing shard both degrade to local recomputation with identical bytes —
// shard files are accelerators, never sources of truth.
func TestShardMergeDamagedAndMissing(t *testing.T) {
	base := Config{Workers: 2, Seed: 3}
	var want bytes.Buffer
	if err := runAll(&want, false, base, shardRunners()); err != nil {
		t.Fatal(err)
	}
	scope, _ := ShardScope(nil, "")
	const k = 3
	dir := t.TempDir()
	var files []string
	for idx := 0; idx < k; idx++ {
		cfg := base
		cfg.Shard = sweep.Shard{Index: idx, Count: k}
		cfg.Store = NewShardStore()
		if err := runAll(io.Discard, false, cfg, shardRunners()); err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", idx))
		if err := cfg.Store.Save(f, cfg.Meta(scope)); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	// Truncate shard 1's tail mid-line (a crash) and drop shard 2 entirely.
	data, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], data[:len(data)-len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	ms := NewMergeSet()
	for _, f := range []string{files[0], files[1]} {
		if _, err := ms.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if missing := ms.Missing(); ms.K() != k || len(missing) != 1 || missing[0] != "2/3" {
		t.Fatalf("coverage K = %d missing %v, want shard 2/3 missing", ms.K(), ms.Missing())
	}
	mcfg := base
	mcfg.Store = ms.Store()
	var got bytes.Buffer
	if err := runAll(&got, false, mcfg, shardRunners()); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("merge with damaged + missing shards is not byte-identical")
	}
	if ms.Store().Recorded() == 0 {
		t.Error("expected local recomputation of the lost records")
	}
}

// TestLoadShardsValidation: incompatible or malformed shard files are
// rejected with a diagnostic instead of silently mixing workloads.
func TestLoadShardsValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, meta ShardMeta) string {
		path := filepath.Join(dir, name)
		s := NewShardStore()
		s.Record("E3#0", 0, []byte(`["x"]`))
		if err := s.Save(path, meta); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ok := ShardMeta{Format: ShardFormat, Shard: "0/2", Seed: 1, Samples: 2, Scope: "suite"}
	a := write("a.jsonl", ok)

	if _, _, err := LoadShards(); err == nil {
		t.Error("no files accepted")
	}
	if _, _, err := LoadShards(filepath.Join(dir, "absent.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
	for name, meta := range map[string]ShardMeta{
		"seed.jsonl":   {Format: ShardFormat, Shard: "1/2", Seed: 9, Samples: 2, Scope: "suite"},
		"samp.jsonl":   {Format: ShardFormat, Shard: "1/2", Seed: 1, Samples: 5, Scope: "suite"},
		"scope.jsonl":  {Format: ShardFormat, Shard: "1/2", Seed: 1, Samples: 2, Scope: "grid:search:v=1"},
		"count.jsonl":  {Format: ShardFormat, Shard: "1/3", Seed: 1, Samples: 2, Scope: "suite"},
		"format.jsonl": {Format: "other", Shard: "1/2", Seed: 1, Samples: 2, Scope: "suite"},
		"v1.jsonl":     {Format: "repro-shard-v1", Shard: "1/2", Seed: 1, Samples: 2, Scope: "suite"},
		"spec.jsonl":   {Format: ShardFormat, Shard: "9/2", Seed: 1, Samples: 2, Scope: "suite"},
	} {
		b := write(name, meta)
		if _, _, err := LoadShards(a, b); err == nil {
			t.Errorf("%s: incompatible shard accepted", name)
		}
	}

	// A file that never was a shard file (no meta line) is rejected.
	plain := filepath.Join(dir, "plain.jsonl")
	if err := os.WriteFile(plain, []byte("{\"b\":\"E3#0\",\"i\":0,\"v\":[\"x\"]}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadShards(plain); err == nil {
		t.Error("meta-less file accepted")
	}

	// Two compatible halves load fine.
	b := write("b.jsonl", ShardMeta{Format: ShardFormat, Shard: "1/2", Seed: 1, Samples: 2, Scope: "suite"})
	store, metas, err := LoadShards(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || store.Len() != 1 {
		t.Errorf("merged %d metas, %d records", len(metas), store.Len())
	}
}
