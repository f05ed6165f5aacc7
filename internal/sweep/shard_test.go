package sweep

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sampler"
)

// TestShardPartition: for every K, the shards 0..K-1 partition the job
// index space — each index owned by exactly one shard — and CountIn agrees
// with Owns.
func TestShardPartition(t *testing.T) {
	const n = 100
	for k := 1; k <= 8; k++ {
		total := 0
		for i := 0; i < n; i++ {
			owners := 0
			for idx := 0; idx < k; idx++ {
				if (Shard{Index: idx, Count: k}).Owns(i) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("K=%d: index %d owned by %d shards", k, i, owners)
			}
		}
		for idx := 0; idx < k; idx++ {
			s := Shard{Index: idx, Count: k}
			owned := 0
			for i := 0; i < n; i++ {
				if s.Owns(i) {
					owned++
				}
			}
			if got := s.CountIn(n); got != owned {
				t.Errorf("shard %v: CountIn(%d) = %d, counted %d", s, n, got, owned)
			}
			total += owned
		}
		if total != n {
			t.Errorf("K=%d: shards own %d of %d indices", k, total, n)
		}
	}
	if got := (Shard{}).CountIn(0); got != 0 {
		t.Errorf("CountIn(0) = %d", got)
	}
	if got := (Shard{Index: 5, Count: 7}).CountIn(3); got != 0 {
		t.Errorf("shard 5/7 CountIn(3) = %d, want 0", got)
	}
}

// TestParseShard covers the accepted and rejected spec forms.
func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1":   {0, 1},
		"0/3":   {0, 3},
		"2/3":   {2, 3},
		" 1/4 ": {1, 4},
	}
	for spec, want := range good {
		got, err := ParseShard(spec)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShard(%q) = %v, want %v", spec, got, want)
		}
	}
	for _, spec := range []string{"", "1", "1/", "/3", "3/3", "-1/3", "0/0", "0/-2", "a/b", "1/3/5", "1.5/3"} {
		if s, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted: %v", spec, s)
		}
	}
}

// TestRunShardedUnion: the union of K sharded runs equals the full run, and
// each shard fills exactly its own slots.
func TestRunShardedUnion(t *testing.T) {
	const n = 37
	fn := func(i int, d sampler.Draws) (float64, error) {
		return float64(i) + d.Float64(0), nil
	}
	full, err := RunSampled(n, fn, Options{Workers: 3, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7} {
		union := make([]float64, n)
		for idx := 0; idx < k; idx++ {
			shard := Shard{Index: idx, Count: k}
			part, err := RunSampled(n, fn, Options{Workers: 2, BaseSeed: 11, Shard: shard})
			if err != nil {
				t.Fatalf("K=%d shard %d: %v", k, idx, err)
			}
			for i, v := range part {
				if !shard.Owns(i) {
					if v != 0 {
						t.Fatalf("K=%d shard %d: slot %d not owned but filled with %v", k, idx, i, v)
					}
					continue
				}
				union[i] = v
			}
		}
		if !reflect.DeepEqual(union, full) {
			t.Errorf("K=%d: union of shards differs from the full run", k)
		}
	}
}

// TestRunInvalidShard: malformed shards fail fast.
func TestRunInvalidShard(t *testing.T) {
	for _, s := range []Shard{{Index: 3, Count: 3}, {Index: -1, Count: 2}, {Index: 1, Count: 0}, {Index: 0, Count: -1}} {
		_, err := RunSampled(4, func(int, sampler.Draws) (int, error) { return 0, nil }, Options{Shard: s})
		if err == nil {
			t.Errorf("shard %+v accepted", s)
		}
	}
}

// mapExchange is an in-memory Exchange for tests.
type mapExchange struct {
	mu       sync.Mutex
	recs     map[string][]byte
	recorded int
	served   int
}

func newMapExchange() *mapExchange { return &mapExchange{recs: map[string][]byte{}} }

func (x *mapExchange) key(batch string, i int) string { return fmt.Sprintf("%s\x00%d", batch, i) }

func (x *mapExchange) Lookup(batch string, i int) ([]byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	raw, ok := x.recs[x.key(batch, i)]
	if ok {
		x.served++
	}
	return raw, ok
}

func (x *mapExchange) Record(batch string, i int, raw []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.recs[x.key(batch, i)] = raw
	x.recorded++
}

// TestRunExchangeMerge: sharded runs record into an exchange; a merge run
// over the union serves every job without executing it and reproduces the
// full results exactly.
func TestRunExchangeMerge(t *testing.T) {
	const n, k = 29, 3
	var executions int
	var mu sync.Mutex
	fn := func(i int, d sampler.Draws) ([2]float64, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return [2]float64{float64(i), d.Float64(0)}, nil
	}
	full, err := RunSampled(n, fn, Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}

	x := newMapExchange()
	for idx := 0; idx < k; idx++ {
		_, err := RunSampled(n, fn, Options{Workers: 2, BaseSeed: 5, Batch: "b", Exchange: x,
			Shard: Shard{Index: idx, Count: k}})
		if err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
	}
	if x.recorded != n {
		t.Fatalf("shards recorded %d of %d jobs", x.recorded, n)
	}

	mu.Lock()
	executions = 0
	mu.Unlock()
	merged, err := RunSampled(n, fn, Options{Workers: 3, BaseSeed: 5, Batch: "b", Exchange: x})
	if err != nil {
		t.Fatal(err)
	}
	if executions != 0 {
		t.Errorf("merge executed %d jobs instead of serving all from the exchange", executions)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Error("merged results differ from the full run")
	}

	// A batch name the exchange has not seen computes everything afresh.
	other, err := RunSampled(n, fn, Options{Workers: 1, BaseSeed: 5, Batch: "other", Exchange: x})
	if err != nil {
		t.Fatal(err)
	}
	if executions != n {
		t.Errorf("unknown batch executed %d jobs, want %d", executions, n)
	}
	if !reflect.DeepEqual(other, full) {
		t.Error("unknown-batch results differ from the full run")
	}
}

// TestRunExchangeDamagedRecord: a record that does not decode is treated as
// absent — the job recomputes and the results still match.
func TestRunExchangeDamagedRecord(t *testing.T) {
	fn := func(i int, d sampler.Draws) (float64, error) { return float64(i) + d.Float64(0), nil }
	full, err := RunSampled(5, fn, Options{BaseSeed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := newMapExchange()
	if _, err := RunSampled(5, fn, Options{BaseSeed: 2, Workers: 1, Batch: "b", Exchange: x}); err != nil {
		t.Fatal(err)
	}
	x.recs[x.key("b", 3)] = []byte("{not json")
	got, err := RunSampled(5, fn, Options{BaseSeed: 2, Workers: 1, Batch: "b", Exchange: x})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Error("damaged record corrupted the merged results")
	}
}

// TestRoundTripsGuard: values JSON cannot carry exactly are refused, exact
// ones are accepted.
func TestRoundTripsGuard(t *testing.T) {
	type hidden struct{ x float64 }
	if _, ok := roundTrips(hidden{x: 1}); ok {
		t.Error("unexported fields accepted for recording")
	}
	if _, ok := roundTrips([]any{int(1000000)}); ok {
		t.Error("[]any with an int accepted: decode would change it to float64")
	}
	for _, v := range []any{1.5, "s"} {
		if _, ok := roundTrips(v); !ok {
			t.Errorf("%v (%T) refused", v, v)
		}
	}
	if _, ok := roundTrips([2]float64{0.1, 2e300}); !ok {
		t.Error("[2]float64 refused")
	}
	if _, ok := roundTrips([]string{"a", "b"}); !ok {
		t.Error("[]string refused")
	}
}
