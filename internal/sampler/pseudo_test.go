package sampler

import (
	"math"
	"math/rand"
	"testing"
)

// The lazy pseudo stream must be math/rand's rngSource bit for bit. These
// tests hold it against the real rand.NewSource, the oracle, on the seeds
// where seed reduction has edges and past every point where the lazy
// prefix hands over to a materialised register.

// edgeSeeds are the seeds where rngSource.Seed's reduction has edges:
// zero and the multiples of 2³¹−1 (which alias to 89482311), values just
// inside and outside ±(2³¹−1), the int64 extremes, and the derived seeds
// SeedAt hands real jobs.
func edgeSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2,
		int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, -(int32max + 1),
		2 * int32max, -2 * int32max, 12345 * int32max, -777 * int32max,
		seedZeroAlt, -seedZeroAlt,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt32, math.MinInt32,
	}
	for _, base := range []int64{0, 7, -3, 1 << 40} {
		for index := 0; index < 4; index++ {
			seeds = append(seeds, SeedAt(base, index))
		}
	}
	return seeds
}

func newLazy(seed int64) *lazySource { return &lazySource{x0: seedState(seed)} }

// TestPseudoFloat64IsDimAddressed: pseudoFloat64(seed, dim) is the dim-th
// rand.Rand.Float64 of the seed's stream, for dimensions on both sides of
// each hand-over point — evaluated out of order, as the addressing
// contract allows.
func TestPseudoFloat64IsDimAddressed(t *testing.T) {
	dims := []int{1500, 0, 1, 2, 100, 271, 272, 273, 274, 606, 607, 608, 1213, 1214, 1215}
	for _, seed := range edgeSeeds() {
		r := rand.New(rand.NewSource(seed))
		want := make([]float64, 1501)
		for k := range want {
			want[k] = r.Float64()
		}
		for _, dim := range dims {
			if got := pseudoFloat64(seed, dim); got != want[dim] {
				t.Fatalf("seed %d dim %d: %v, math/rand %v", seed, dim, got, want[dim])
			}
		}
	}
}

// TestPseudoSeedAliases: every multiple of 2³¹−1 reduces to rngSource's
// substitute seed, so their streams are one stream.
func TestPseudoSeedAliases(t *testing.T) {
	ref := newLazy(seedZeroAlt)
	for _, seed := range []int64{0, int32max, -int32max, 3 * int32max, -4 * int32max} {
		if x := seedState(seed); x != seedZeroAlt {
			t.Fatalf("seedState(%d) = %d, want %d", seed, x, seedZeroAlt)
		}
	}
	s := newLazy(5 * int32max)
	for k := 0; k < 300; k++ {
		if g, w := s.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("draw %d: seed 5·(2³¹−1) gives %d, seed %d gives %d", k, g, seedZeroAlt, w)
		}
	}
}

// stubSource replays fixed Int63 values, so Float64's resample branch —
// which no real seed's early draws reach — can be driven directly.
type stubSource struct {
	vals []int64
	k    int
}

func (s *stubSource) Int63() int64 {
	v := s.vals[s.k]
	s.k++
	return v
}

func (s *stubSource) Seed(int64) {}

// TestNthFloat64Resamples: a draw that rounds to 1.0 is skipped and the
// next one taken, exactly as rand.Rand.Float64 does, so dimension dim is
// the dim-th Float64, not the dim-th raw draw.
func TestNthFloat64Resamples(t *testing.T) {
	vals := []int64{
		math.MaxInt64,     // rounds to 2⁶³: f == 1, resampled
		12345,             // Float64 #0
		1<<63 - 512,       // ties to even, up to 2⁶³: resampled
		math.MaxInt64,     // resampled again
		1<<63 - 1025,      // rounds down to 2⁶³−1024: Float64 #1, just below 1
		7,                 // Float64 #2
		math.MaxInt64 - 1, // spare
	}
	r := rand.New(&stubSource{vals: vals})
	for dim := 0; dim < 3; dim++ {
		want := r.Float64()
		stub := &stubSource{vals: vals}
		if got := nthFloat64(stub.Int63, dim); got != want {
			t.Fatalf("dim %d: %v, rand.Rand.Float64 %v", dim, got, want)
		}
		if want >= 1 {
			t.Fatalf("dim %d: rand.Rand.Float64 returned %v", dim, want)
		}
	}
	if want := float64(1<<63-1024) / (1 << 63); nthFloat64((&stubSource{vals: vals}).Int63, 1) != want {
		t.Fatalf("dim 1 is not the first value below 1 after two resamples")
	}
}

// FuzzPseudoMatchesMathRand: for an arbitrary seed and stream length
// n ≤ 2,000, the lazy source's raw Uint64/Int63 stream equals math/rand's. Its seed corpus is the
// differential test `go test` runs: every edge seed, 1,500 draws deep —
// across the lazy prefix (k < 273), the hand-over to the materialised
// register and its wrap-arounds at 607 and 1,214 draws.
func FuzzPseudoMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds() {
		f.Add(seed, uint16(1500))
	}
	f.Add(int64(42), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, length uint16) {
		n := int(length) % 2001
		got := newLazy(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < n; k++ {
			if k%2 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, k, g, w)
				}
			} else if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, g, w)
			}
		}
	})
}

var sinkFloat float64

// TestPseudoDrawAllocGate pins what a pseudo job's randomness costs in
// allocations: reading a dimension allocates nothing.
func TestPseudoDrawAllocGate(t *testing.T) {
	src := Default()
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		d := src.Draws(7, i)
		sinkFloat += d.Float64(0) + d.Float64(1)
		i++
	}); a != 0 {
		t.Errorf("pseudo Draws(seed, i).Float64(dim): %.1f allocs per job, want 0", a)
	}
}

// BenchmarkPseudoDraw is one pseudo job's randomness: its handle and its
// first one or two dimensions.
func BenchmarkPseudoDraw(b *testing.B) {
	src := Default()
	b.Run("dims=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat += src.Draws(7, i).Float64(0)
		}
	})
	b.Run("dims=2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := src.Draws(7, i)
			sinkFloat += d.Float64(0) + d.Float64(1)
		}
	})
}
