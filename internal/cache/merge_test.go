package cache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// saveEntries writes a cache file at path holding the given key→result
// pairs, in map-independent insertion order.
func saveEntries(t *testing.T, path string, entries []diskEntry) {
	t.Helper()
	c := New(0)
	for _, e := range entries {
		c.Put(e.K, e.R)
	}
	if err := c.SaveAs(path); err != nil {
		t.Fatal(err)
	}
}

// TestMergeUnion: Merge folds several files into one cache — the union of
// their entries, with the last writer winning ties on the same key.
func TestMergeUnion(t *testing.T) {
	dir := t.TempDir()
	key := func(p string) Key { return Key{Kind: "search", Program: p} }
	a := filepath.Join(dir, "a.cache.jsonl")
	b := filepath.Join(dir, "b.cache.jsonl")
	saveEntries(t, a, []diskEntry{
		{K: key("only-a"), R: sim.Result{Time: 1}},
		{K: key("tie"), R: sim.Result{Time: 10}},
	})
	saveEntries(t, b, []diskEntry{
		{K: key("only-b"), R: sim.Result{Time: 2}},
		{K: key("tie"), R: sim.Result{Time: 20, Met: true}},
	})

	c := New(0)
	n, err := c.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("Merge folded %d entries, want 4", n)
	}
	if c.Len() != 3 {
		t.Errorf("union holds %d keys, want 3", c.Len())
	}
	for p, want := range map[string]sim.Result{
		"only-a": {Time: 1},
		"only-b": {Time: 2},
		"tie":    {Time: 20, Met: true}, // b merged after a: last writer wins
	} {
		got, ok := c.Get(key(p))
		if !ok {
			t.Errorf("key %q missing from the union", p)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("key %q = %+v, want %+v", p, got, want)
		}
	}

	// Reversed order flips the tie the other way.
	c2 := New(0)
	if _, err := c2.Merge(b, a); err != nil {
		t.Fatal(err)
	}
	if got, _ := c2.Get(key("tie")); got.Time != 10 {
		t.Errorf("reversed merge tie = %+v, want the later file's Time 10", got)
	}
}

// TestMergeCollidingFingerprints: two parameter sets closer than a Quantize
// bucket share a key, so merging their files keeps one entry — the later
// one — rather than two.
func TestMergeCollidingFingerprints(t *testing.T) {
	dir := t.TempDir()
	k1 := Key{Kind: "search", Program: "alg4", R: Quantize(0.25)}
	k2 := Key{Kind: "search", Program: "alg4", R: Quantize(0.25 + 1e-15)}
	if k1 != k2 {
		t.Fatalf("test premise broken: %v and %v should collide", k1, k2)
	}
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	saveEntries(t, a, []diskEntry{{K: k1, R: sim.Result{Time: 1}}})
	saveEntries(t, b, []diskEntry{{K: k2, R: sim.Result{Time: 2}}})
	c := New(0)
	if _, err := c.Merge(a, b); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("colliding fingerprints kept %d entries, want 1", c.Len())
	}
	if got, _ := c.Get(k1); got.Time != 2 {
		t.Errorf("collision winner = %+v, want the last writer (Time 2)", got)
	}
}

// TestMergeMissingAndDamaged: a missing file and damaged lines are skipped —
// the cache is an accelerator, never a source of truth — and a nil receiver
// is a no-op.
func TestMergeMissingAndDamaged(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	saveEntries(t, good, []diskEntry{{K: Key{Kind: "search", Program: "p"}, R: sim.Result{Time: 3}}})
	damaged := filepath.Join(dir, "damaged.jsonl")
	if err := os.WriteFile(damaged, []byte("not json\n{\"k\":{\"Kind\":\"search\",\"Program\":\"q\"},\"r\":{\"t\":4}}\ntrunca"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(0)
	n, err := c.Merge(filepath.Join(dir, "absent.jsonl"), good, damaged)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || c.Len() != 2 {
		t.Errorf("folded %d entries into %d keys, want 2 into 2 (damaged lines skipped)", n, c.Len())
	}

	var nilCache *Cache
	if n, err := nilCache.Merge(good); n != 0 || err != nil {
		t.Errorf("nil Merge = (%d, %v), want (0, nil)", n, err)
	}
	if err := nilCache.SaveAs(filepath.Join(dir, "nil.jsonl")); err != nil {
		t.Errorf("nil SaveAs: %v", err)
	}
}

// TestOpenWarm: Open's warm paths pre-populate the cache union-style, with
// the primary file's own entries winning every tie, and Save persists the
// union to the primary path only.
func TestOpenWarm(t *testing.T) {
	dir := t.TempDir()
	key := func(p string) Key { return Key{Kind: "search", Program: p} }
	primary := filepath.Join(dir, "primary.jsonl")
	w1 := filepath.Join(dir, "w1.jsonl")
	w2 := filepath.Join(dir, "w2.jsonl")
	saveEntries(t, primary, []diskEntry{{K: key("tie"), R: sim.Result{Time: 100}}})
	saveEntries(t, w1, []diskEntry{
		{K: key("tie"), R: sim.Result{Time: 1}},
		{K: key("w1"), R: sim.Result{Time: 11}},
	})
	saveEntries(t, w2, []diskEntry{{K: key("w2"), R: sim.Result{Time: 22}}})

	c, err := Open(primary, 0, w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("warmed cache holds %d keys, want 3", c.Len())
	}
	if got, _ := c.Get(key("tie")); got.Time != 100 {
		t.Errorf("primary entry lost a tie to a warm file: %+v", got)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	// The union persisted to the primary path; the warm files are untouched.
	re, err := Open(primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Errorf("saved union holds %d keys, want 3", re.Len())
	}
	wcheck := New(0)
	if n, err := wcheck.Merge(w1); err != nil || n != 2 {
		t.Errorf("warm file w1 changed: %d entries, err %v", n, err)
	}
}

// TestPreVersionRecordMisses: a record written before keys carried
// ResultVersion — the same fingerprint without the Version field — loads
// but never answers a query, so results of the older arithmetic cannot be
// served as current ones. A record written with the current key hits.
func TestPreVersionRecordMisses(t *testing.T) {
	// legacyKey is the Key layout before the Version field existed.
	type legacyKey struct {
		Kind    string
		Program string
		V       uint64
		Tau     uint64
		Phi     uint64
		Chi     int
		DX, DY  uint64
		R       uint64
		Horizon uint64
		Slack   uint64
		Iters   int
	}
	opt := sim.Options{Horizon: 1e4}
	cur := SearchKey("alg4", geom.V(1, 0), 0.25, opt)
	old := legacyKey{Kind: cur.Kind, Program: cur.Program, DX: cur.DX, DY: cur.DY,
		R: cur.R, Horizon: cur.Horizon, Slack: cur.Slack, Iters: cur.Iters}
	payload, err := json.Marshal(struct {
		K legacyKey  `json:"k"`
		R sim.Result `json:"r"`
	}{old, sim.Result{Met: true, Time: 24.093337274203726}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.cache.jsonl")
	if err := os.WriteFile(path, appendRecord(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(0)
	if n, err := c.Merge(path); err != nil || n != 1 {
		t.Fatalf("Merge = (%d, %v), want the old record loaded", n, err)
	}
	if res, ok := c.Get(cur); ok {
		t.Fatalf("pre-version record answered a current query: %+v", res)
	}
	if cur.Version != ResultVersion || RendezvousKey("alg4", sim.Instance{}, opt).Version != ResultVersion ||
		AsymmetricKey("a", "b", sim.Instance{}, opt).Version != ResultVersion ||
		MeetingKey("m", 0.25, opt).Version != ResultVersion {
		t.Fatal("a key constructor does not stamp ResultVersion")
	}

	fresh := filepath.Join(t.TempDir(), "new.cache.jsonl")
	saveEntries(t, fresh, []diskEntry{{K: cur, R: sim.Result{Met: true, Time: 24.09333727413376}}})
	c = New(0)
	if _, err := c.Merge(fresh); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(cur); !ok || res.Time != 24.09333727413376 {
		t.Fatalf("current record: got (%+v, %v), want a hit", res, ok)
	}
}
