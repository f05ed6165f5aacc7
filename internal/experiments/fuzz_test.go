package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardFileLines is a well-formed shard file of the given shard spec (seed
// 11, suite scope) holding the records, one JSON line each.
func shardFileLines(shard string, records ...string) string {
	lines := []string{`{"meta":{"format":"` + ShardFormat + `","shard":"` + shard + `","seed":11,"samples":0,"scope":"suite"},"i":0}`}
	lines = append(lines, records...)
	return strings.Join(lines, "\n") + "\n"
}

// addAfterBase adds a base shard file with one record to a fresh MergeSet,
// then the file holding data, and returns the second Add's error. It fails
// t when that Add errs yet changed the set or its store: a rejected file
// contributes nothing.
func addAfterBase(t *testing.T, data []byte) error {
	t.Helper()
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	if err := os.WriteFile(base, []byte(shardFileLines("0/2", `{"b":"E1#0","i":0,"v":1}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	ms := NewMergeSet()
	if _, err := ms.Add(base); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "input.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := ms.Store().Len()
	_, err := ms.Add(path)
	if err != nil {
		if n := ms.Store().Len(); n != recs {
			t.Fatalf("rejected file (%v) changed the store: %d -> %d records", err, recs, n)
		}
		if ms.Len() != 1 || ms.K() != 2 {
			t.Fatalf("rejected file (%v) changed the set: Len=%d K=%d", err, ms.Len(), ms.K())
		}
	} else if ms.Len() != 2 {
		t.Fatalf("accepted file: Len=%d, want 2", ms.Len())
	}
	return err
}

// FuzzShardRecords: arbitrary bytes as a shard record file never panic
// MergeSet.Add, and a file Add rejects leaves the live store as it was.
func FuzzShardRecords(f *testing.F) {
	second := shardFileLines("1/2", `{"b":"E1#0","i":1,"v":2}`, `{"b":"E2#0","i":3,"v":[1,2]}`)
	for _, data := range []string{
		second,
		// Two shard files pasted together: the second meta line rejects the
		// file after the first file's records have been read.
		second + shardFileLines("0/2", `{"b":"E3#0","i":0,"v":3}`),
		shardFileLines("1/2", "not json", `{"b":"","i":2,"v":1}`, `{"b":"E1#0","i":4}`),
		shardFileLines("1/3", `{"b":"E1#0","i":1,"v":2}`),
		`{"b":"E1#0","i":1,"v":2}` + "\n",
		"",
	} {
		f.Add([]byte(data))
	}
	f.Fuzz(func(t *testing.T, data []byte) { _ = addAfterBase(t, data) })
}

// TestShardLongLineContributesNothing: a line over the reader's 1 MiB
// limit rejects the file, and the records read before it are not merged.
func TestShardLongLineContributesNothing(t *testing.T) {
	long := `{"b":"E1#0","i":2,"v":"` + strings.Repeat("x", 1<<20) + `"}`
	if err := addAfterBase(t, []byte(shardFileLines("1/2", `{"b":"E1#0","i":1,"v":2}`, long))); err == nil {
		t.Fatal("a shard file with a line over 1 MiB was accepted")
	}
}
