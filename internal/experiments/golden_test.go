package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// Golden byte-identity pinning for the value-typed segment refactor (PR 5).
//
// testdata/golden_runall_seed7.txt and testdata/golden_grid_mc.txt were
// captured from the interface-based segment representation (the tree at
// PR 4) and committed. These tests re-render the same workloads — the full
// RunAllCfg suite and one Monte-Carlo grid — across workers ∈ {1, 8} ×
// cache on/off × shard K ∈ {1, 3} × batch kernel on/off and require every
// byte to match the committed goldens. Unlike the self-consistency tests (which compare two
// code paths of the same tree), this pins the output across *refactors*: a
// representation change that shifts any float operation shows up as a
// golden diff, not as two identically-wrong renderings.
//
// If an intentional output change ever lands, regenerate the goldens with
// RunAllCfg/RunGridCfg at the configs below and say so loudly in the PR.

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	return string(b)
}

// runAllSharded renders the full suite as a merge of k sharded runs.
func runAllSharded(t *testing.T, base Config, k int, useCache bool) string {
	t.Helper()
	dir := t.TempDir()
	scope, err := ShardScope(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	files := make([]string, k)
	for idx := 0; idx < k; idx++ {
		cfg := base
		if useCache {
			cfg.Cache = cache.New(0)
		}
		cfg.Shard = sweep.Shard{Index: idx, Count: k}
		cfg.Store = NewShardStore()
		if err := RunAllCfg(io.Discard, false, cfg); err != nil {
			t.Fatalf("shard %d/%d: %v", idx, k, err)
		}
		files[idx] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", idx))
		if err := cfg.Store.Save(files[idx], cfg.Meta(scope)); err != nil {
			t.Fatal(err)
		}
	}
	store, _, err := LoadShards(files...)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := base
	if useCache {
		mcfg.Cache = cache.New(0)
	}
	mcfg.Store = store
	var buf bytes.Buffer
	if err := RunAllCfg(&buf, false, mcfg); err != nil {
		t.Fatalf("merge of %d shards: %v", k, err)
	}
	return buf.String()
}

func TestGoldenRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden comparison is slow")
	}
	want := readGolden(t, "golden_runall_seed7.txt")
	for _, workers := range []int{1, 8} {
		for _, useCache := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				if batch && workers == 1 {
					// Bound the runtime: the batch × workers=1 combination is
					// covered exhaustively by the (fast) grid golden below.
					continue
				}
				name := fmt.Sprintf("workers=%d cache=%v batch=%v", workers, useCache, batch)
				cfg := Config{Workers: workers, Seed: 7, Batch: batch}
				if useCache {
					cfg.Cache = cache.New(0)
				}
				var buf bytes.Buffer
				if err := RunAllCfg(&buf, false, cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if buf.String() != want {
					t.Errorf("%s: RunAllCfg output differs from the committed pre-refactor golden", name)
				}
			}
		}
	}
}

func TestGoldenRunAllSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded full-suite golden comparison is slow")
	}
	want := readGolden(t, "golden_runall_seed7.txt")
	base := Config{Workers: 8, Seed: 7}
	for _, k := range []int{1, 3} {
		for _, useCache := range []bool{false, true} {
			name := fmt.Sprintf("K=%d cache=%v", k, useCache)
			if got := runAllSharded(t, base, k, useCache); got != want {
				t.Errorf("%s: merged output differs from the committed pre-refactor golden", name)
			}
		}
	}
	// One batched sharded pass: batch-kernel shards must record exchange
	// entries that recombine exactly like scalar ones.
	batched := base
	batched.Batch = true
	if got := runAllSharded(t, batched, 3, true); got != want {
		t.Error("K=3 cache=true batch=true: merged output differs from the committed pre-refactor golden")
	}
}

func TestGoldenMonteCarloGrid(t *testing.T) {
	want := readGolden(t, "golden_grid_mc.txt")
	specs := []string{"v=0.25,0.5,0.75", "phi=0:2:1"}
	for _, workers := range []int{1, 8} {
		for _, useCache := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d cache=%v batch=%v", workers, useCache, batch)
				cfg := Config{Workers: workers, Seed: 5, Samples: 3, Batch: batch}
				if useCache {
					cfg.Cache = cache.New(0)
				}
				var buf bytes.Buffer
				if err := RunGridCfg(&buf, false, specs, "search", cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if buf.String() != want {
					t.Errorf("%s: grid output differs from the committed pre-refactor golden", name)
				}
			}
		}
	}
}

func TestGoldenMonteCarloGridSharded(t *testing.T) {
	want := readGolden(t, "golden_grid_mc.txt")
	specs := []string{"v=0.25,0.5,0.75", "phi=0:2:1"}
	base := Config{Workers: 8, Seed: 5, Samples: 3}
	scope, err := ShardScope(specs, "search")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		for _, batch := range []bool{false, true} {
			dir := t.TempDir()
			files := make([]string, k)
			for idx := 0; idx < k; idx++ {
				cfg := base
				cfg.Batch = batch
				cfg.Shard = sweep.Shard{Index: idx, Count: k}
				cfg.Store = NewShardStore()
				if err := RunGridCfg(io.Discard, false, specs, "search", cfg); err != nil {
					t.Fatalf("K=%d batch=%v shard %d: %v", k, batch, idx, err)
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
			// Merge with the opposite kind: scalar-recorded shards must serve
			// a batched merge run and vice versa.
			mcfg := base
			mcfg.Batch = !batch
			mcfg.Store = store
			var buf bytes.Buffer
			if err := RunGridCfg(&buf, false, specs, "search", mcfg); err != nil {
				t.Fatalf("K=%d batch=%v merge: %v", k, batch, err)
			}
			if buf.String() != want {
				t.Errorf("K=%d batch=%v: merged grid output differs from the committed pre-refactor golden", k, batch)
			}
		}
	}
}
