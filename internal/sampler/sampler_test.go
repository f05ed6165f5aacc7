package sampler_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sampler"
	"repro/internal/sweep"
)

// TestPseudoMatchesLegacyStream is the migration's bit-identity guard: the
// pseudo sampler's draws must equal the pre-redesign sweep.Rand(base, index)
// stream exactly — the first 1k+ draws, across dimension counts 1..8 and
// several base seeds. Any drift here would silently re-randomize every
// Monte-Carlo table in the suite.
func TestPseudoMatchesLegacyStream(t *testing.T) {
	for _, base := range []int64{0, 7, -3, 1 << 40} {
		for dims := 1; dims <= 8; dims++ {
			src := sampler.New(sampler.Pseudo, dims)
			draws := 0
			for index := 0; draws < 1000; index++ {
				legacy := sweep.Rand(base, index)
				d := src.Draws(base, index)
				for dim := 0; dim < dims; dim++ {
					want := legacy.Float64()
					if got := d.Float64(dim); got != want {
						t.Fatalf("base %d index %d dim %d (of %d): pseudo draw %v != legacy stream %v",
							base, index, dim, dims, got, want)
					}
					draws++
				}
			}
		}
	}
}

// TestSeedAtMatchesSweepSeed pins the shared derivation: sweep.Seed is
// documented to delegate to sampler.SeedAt.
func TestSeedAtMatchesSweepSeed(t *testing.T) {
	for _, base := range []int64{0, 1, -9, 123456789} {
		for index := 0; index < 100; index++ {
			if sampler.SeedAt(base, index) != sweep.Seed(base, index) {
				t.Fatalf("SeedAt(%d,%d) != sweep.Seed", base, index)
			}
		}
	}
}

// TestDrawsInUnitInterval: every kind, a spread of dimensions (including
// past the Sobol/Halton tables) and indices, always lands in [0,1).
func TestDrawsInUnitInterval(t *testing.T) {
	for _, kind := range sampler.Kinds() {
		src := sampler.New(kind, 37) // deliberately not a power of two
		for index := 0; index < 200; index++ {
			d := src.Draws(5, index)
			for dim := 0; dim < 40; dim++ {
				v := d.Float64(dim)
				if !(v >= 0 && v < 1) || math.IsNaN(v) {
					t.Fatalf("%v index %d dim %d: draw %v outside [0,1)", kind, index, dim, v)
				}
			}
		}
	}
}

// TestDeterministicAndSeedSensitive: draws are pure in (seed, index, dim),
// and different seeds decorrelate the QMC kinds (scrambling is live).
func TestDeterministicAndSeedSensitive(t *testing.T) {
	for _, kind := range sampler.Kinds() {
		src := sampler.New(kind, 64)
		for index := 0; index < 64; index += 7 {
			a := src.Draws(11, index)
			b := src.Draws(11, index)
			if a.Float64(0) != b.Float64(0) || a.Float64(1) != b.Float64(1) {
				t.Fatalf("%v index %d: repeated draws differ", kind, index)
			}
		}
		x := src.Draws(1, 3).Float64(0)
		y := src.Draws(2, 3).Float64(0)
		if x == y {
			t.Fatalf("%v: seeds 1 and 2 produced the identical draw %v", kind, x)
		}
	}
}

// TestStratifiedIsLatinHypercube: per dimension, one block's draws occupy
// every stratum of the equal subdivision exactly once — the Latin-hypercube
// property, evaluated through the point-wise permutation.
func TestStratifiedIsLatinHypercube(t *testing.T) {
	for _, block := range []int{1, 2, 7, 64, 100} {
		src := sampler.New(sampler.Stratified, block)
		for dim := 0; dim < 4; dim++ {
			for b := 0; b < 3; b++ { // a few blocks: each must stratify independently
				hit := make([]bool, block)
				for p := 0; p < block; p++ {
					v := src.Draws(9, b*block+p).Float64(dim)
					s := int(v * float64(block))
					if s < 0 || s >= block {
						t.Fatalf("block %d dim %d: draw %v outside [0,1)", block, dim, v)
					}
					if hit[s] {
						t.Fatalf("block size %d dim %d block %d: stratum %d hit twice", block, dim, b, s)
					}
					hit[s] = true
				}
			}
		}
	}
}

// TestSobolBlockIsStratified: for a power-of-two block, each dimension's
// draws over one block form a (0,m,1)-net — exactly one point in every
// 1/block subinterval. The digital shift preserves this, so the test
// doubles as a validity check of the direction-number table (a bad m_k
// would break the net property).
func TestSobolBlockIsStratified(t *testing.T) {
	const block = 256
	src := sampler.New(sampler.Sobol, block)
	for dim := 0; dim < sampler.SobolDims; dim++ {
		hit := make([]bool, block)
		for p := 0; p < block; p++ {
			v := src.Draws(13, p).Float64(dim)
			s := int(v * block)
			if hit[s] {
				t.Fatalf("sobol dim %d: subinterval %d hit twice — direction numbers broken", dim, s)
			}
			hit[s] = true
		}
	}
}

// TestHaltonBlockIsShiftedLattice: the first base^k Halton points in one
// dimension are the uniform lattice {j/n}; after the Cranley–Patterson
// rotation they must still be a shifted lattice — successive sorted gaps
// all equal 1/n.
func TestHaltonBlockIsShiftedLattice(t *testing.T) {
	cases := []struct{ dim, n int }{{0, 64}, {1, 81}, {2, 125}}
	for _, c := range cases {
		src := sampler.New(sampler.Halton, c.n)
		vs := make([]float64, c.n)
		for p := 0; p < c.n; p++ {
			vs[p] = src.Draws(21, p).Float64(c.dim)
		}
		sort.Float64s(vs)
		want := 1 / float64(c.n)
		for i := 1; i < c.n; i++ {
			if gap := vs[i] - vs[i-1]; math.Abs(gap-want) > 1e-12 {
				t.Fatalf("halton dim %d n %d: sorted gap %d is %v, want %v", c.dim, i, c.n, gap, want)
			}
		}
	}
}

// TestParseKindRoundTrip: every kind's name parses back to itself; the
// empty string is the pseudo default; junk is rejected.
func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range sampler.Kinds() {
		got, err := sampler.ParseKind(kind.String())
		if err != nil || got != kind {
			t.Fatalf("ParseKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if got, err := sampler.ParseKind(""); err != nil || got != sampler.Pseudo {
		t.Fatalf("ParseKind(\"\") = %v, %v; want pseudo", got, err)
	}
	if _, err := sampler.ParseKind("mersenne"); err == nil {
		t.Fatal("ParseKind accepted an unknown sampler name")
	}
}

// TestQMCBeatsPseudoOnSmoothIntegrand is a coarse convergence sanity check
// (the real experiment lives in internal/experiments): integrating
// f(x,y) = x·y over one block, every low-discrepancy kind must land closer
// to the true mean 1/4 than the pseudo sampler does at the same n.
func TestQMCBeatsPseudoOnSmoothIntegrand(t *testing.T) {
	const n = 512
	errOf := func(kind sampler.Kind) float64 {
		src := sampler.New(kind, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			d := src.Draws(3, i)
			sum += d.Float64(0) * d.Float64(1)
		}
		return math.Abs(sum/n - 0.25)
	}
	pseudo := errOf(sampler.Pseudo)
	for _, kind := range []sampler.Kind{sampler.Stratified, sampler.Halton, sampler.Sobol} {
		if e := errOf(kind); e >= pseudo {
			t.Errorf("%v error %.3g not below pseudo %.3g at n=%d", kind, e, pseudo, n)
		}
	}
}
