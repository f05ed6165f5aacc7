// Package sampler supplies the uniform [0,1) draws behind every
// Monte-Carlo axis of the suite, behind one dimension-addressed contract:
// every draw is a pure function of (base seed, dense job index, dimension).
//
// # The addressing contract
//
// A sweep of n jobs asks its Source for one Draws handle per dense job
// index i ∈ [0, n); the job then reads its random coordinates one dimension
// at a time — Float64(0) for the first coordinate, Float64(1) for the
// second, and so on. Every kind computes Float64(dim) as a pure function
// of (seed, i, dim): a job may read its dimensions in any order, any number
// of times. Because the value of (seed, i, dim) never depends on which
// process, worker, or batch row evaluates job i, any sampler splits across
// a K-way stride-sharded fleet (see sweep.Shard) and recombines
// byte-identically: shard safety is a corollary of the addressing, not a
// property each sampler must re-establish. This is why Sources must be
// dimension-addressed — a sampler that handed out draws from shared
// sequential state would make job i's values depend on which jobs ran
// before it in the same process, and a sharded run could never reproduce
// them. Draws therefore has no sequential view: there is no stream whose
// values depend on the order of the calls made on it.
//
// # Blocks
//
// Low-discrepancy sequences only help an estimator that averages over a
// known index range, so a Source carries a block size: the number of
// samples that form one estimate (the "sample axis" — e.g. the draws per
// grid cell). Job index i belongs to block i/block at position i%block;
// the QMC kinds run their sequence over the position and decorrelate
// blocks from each other by seed-derived scrambling, so every grid cell
// sees an equally well-distributed point set rather than consecutive
// chunks of one global sequence.
//
// # Kinds
//
//   - pseudo: the job's private math/rand stream seeded from
//     SeedAt(seed, i) — bit-identical to the pre-sampler sweep engine
//     (sweep.Rand). Float64(dim) is the dim-th rand.Rand.Float64 of that
//     stream, computed from the two register words each draw reads rather
//     than by seeding the 607-word register (see pseudo.go). The default.
//   - sobol: a digitally shifted Sobol' sequence (Joe–Kuo direction
//     numbers, 16 dimensions; higher dimensions fall back to hashed
//     draws) over the block position.
//   - halton: a Cranley–Patterson-rotated (scrambled) Halton sequence,
//     prime base per dimension.
//   - stratified: a Latin-hypercube over the sample axis — per dimension,
//     block position p lands in stratum perm(p) of the block's equal
//     subdivision, jittered uniformly within the stratum. The permutation
//     is evaluated point-wise (a keyed Feistel bijection with cycle
//     walking), so job i computes its stratum without materializing the
//     block — which is what keeps stratification shard-safe.
//
// All kinds are deterministic: same (kind, block, seed) ⇒ same draws,
// forever, on every machine.
package sampler

import (
	"fmt"
	"math/bits"
	"strings"
)

// Kind enumerates the sampler implementations. The zero value is Pseudo,
// so an unconfigured Config/Options keeps today's byte-identical behavior.
type Kind uint8

const (
	Pseudo Kind = iota
	Stratified
	Halton
	Sobol
	numKinds
)

// String returns the flag/JSON name of the kind.
func (k Kind) String() string {
	switch k {
	case Pseudo:
		return "pseudo"
	case Stratified:
		return "stratified"
	case Halton:
		return "halton"
	case Sobol:
		return "sobol"
	}
	return fmt.Sprintf("sampler.Kind(%d)", uint8(k))
}

// Kinds returns every sampler kind, in presentation order (pseudo first —
// the default — then by increasing structure).
func Kinds() []Kind {
	return []Kind{Pseudo, Stratified, Halton, Sobol}
}

// ParseKind resolves a flag or JSON sampler name. The empty string is the
// default pseudo sampler; unknown names are an error listing the valid
// ones (the CLIs pass it through verbatim, rvserved answers 400 with it).
func ParseKind(name string) (Kind, error) {
	switch strings.TrimSpace(name) {
	case "", "pseudo":
		return Pseudo, nil
	case "stratified":
		return Stratified, nil
	case "halton":
		return Halton, nil
	case "sobol":
		return Sobol, nil
	}
	return Pseudo, fmt.Errorf("sampler: unknown sampler %q (want pseudo, stratified, halton, or sobol)", name)
}

// SeedAt derives the RNG seed of job index from base, mixing with the
// splitmix64 finalizer so that consecutive indices produce decorrelated
// streams (base+index alone would make neighbouring jobs near-identical
// under math/rand's lagged-Fibonacci state). This is the derivation the
// sweep engine has always used — sweep.Seed delegates here — and the
// pseudo sampler's stream is the one rand.New(rand.NewSource(SeedAt(seed, i)))
// yields.
func SeedAt(base int64, index int) int64 {
	z := uint64(base) + uint64(index)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Source hands out the per-job Draws of one sweep. It is immutable and
// safe for concurrent use; the seed is supplied per call (by the sweep's
// BaseSeed), so one Source serves any number of runs.
type Source struct {
	kind  Kind
	block int
}

// pseudoSource is the shared default returned by Pseudo's constructor-free
// path: kind Pseudo ignores the block entirely.
var pseudoSource = &Source{kind: Pseudo, block: 1}

// New returns the Source of the given kind. block is the sample-axis
// length — the number of consecutive job indices that form one estimate
// (draws per grid cell); values < 1 are treated as 1. Pseudo ignores it.
func New(kind Kind, block int) *Source {
	if kind == Pseudo {
		return pseudoSource
	}
	if block < 1 {
		block = 1
	}
	return &Source{kind: kind, block: block}
}

// Default returns the shared pseudo Source — the sampler of every sweep
// that does not configure one.
func Default() *Source { return pseudoSource }

// Kind returns the source's sampler kind.
func (s *Source) Kind() Kind { return s.kind }

// Name returns the source's flag/JSON name.
func (s *Source) Name() string { return s.kind.String() }

// Draws returns the handle of dense job index under the given base seed.
// The handle is plain value state for every kind; nothing is seeded or
// allocated until a draw is read.
func (s *Source) Draws(seed int64, index int) Draws {
	return Draws{kind: s.kind, seed: seed, index: index, block: s.block}
}

// Draws is one job's dimension-addressed view of its Source: Float64(dim)
// is the job's uniform [0,1) coordinate in dimension dim, a pure function
// of (seed, index, dim) for every kind.
type Draws struct {
	kind  Kind
	seed  int64
	index int
	block int
}

// Float64 returns the draw of the given dimension. For the pseudo kind it
// is the dim-th Float64 of the job's math/rand stream, so reading
// dimensions 0, 1, … in order yields exactly that stream.
func (d Draws) Float64(dim int) float64 {
	switch d.kind {
	case Stratified:
		return stratifiedAt(d.seed, d.block, d.index, dim)
	case Halton:
		return haltonAt(d.seed, d.block, d.index, dim)
	case Sobol:
		return sobolAt(d.seed, d.block, d.index, dim)
	}
	return pseudoFloat64(SeedAt(d.seed, d.index), dim)
}

// Index returns the dense job index this handle addresses.
func (d Draws) Index() int { return d.index }

// Hash salts keep the scramble streams of the kinds (and their internal
// roles) disjoint even for equal (seed, block, dim) tuples.
const (
	saltStratPerm uint64 = 0x5374726174506572 // "StratPer"
	saltStratJit  uint64 = 0x53747261744a6974 // "StratJit"
	saltHalton    uint64 = 0x48616c746f6e5252 // "HaltonRR"
	saltSobol     uint64 = 0x536f626f6c445348 // "SobolDSH"
	saltOverflow  uint64 = 0x4f766572666c6f77 // "Overflow"
)

// splitmix is the splitmix64 finalizer — the one mixing primitive every
// scramble derivation composes.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mash folds the given words into one 64-bit hash by chained splitmix
// finalization.
func mash(vals ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		h = splitmix(h ^ v)
	}
	return h
}

// unit maps a 64-bit hash onto [0,1) with full float64 mantissa
// resolution (53 bits). Strictly below 1.
func unit(h uint64) float64 { return float64(h>>11) * 0x1p-53 }

// stratifiedAt is the Latin-hypercube draw: block position p lands in
// stratum perm(p) of dimension dim's equal subdivision of [0,1), jittered
// uniformly within the stratum. perm is a keyed bijection of [0, block)
// derived from (seed, block number, dim), so each dimension of each block
// visits every stratum exactly once — and each draw is still a pure
// function of (seed, index, dim).
func stratifiedAt(seed int64, block, index, dim int) float64 {
	b, p := index/block, index%block
	key := mash(saltStratPerm, uint64(seed), uint64(b), uint64(dim))
	stratum := permIndex(p, block, key)
	j := unit(mash(saltStratJit, key, uint64(p)))
	return (float64(stratum) + j) / float64(block)
}

// permIndex evaluates a keyed pseudorandom bijection of [0, n) at p,
// point-wise: a 3-round Feistel network over the enclosing power-of-two
// domain, cycle-walked back into [0, n). No per-block state is ever
// materialized, so a sharded job computes its stratum alone.
func permIndex(p, n int, key uint64) int {
	if n <= 1 {
		return 0
	}
	half := (bits.Len(uint(n-1)) + 1) / 2
	mask := uint(1)<<half - 1
	x := uint(p)
	for {
		l, r := x>>half, x&mask
		for round := uint64(0); round < 3; round++ {
			l, r = r, l^(uint(splitmix(key^uint64(r)^round<<48))&mask)
		}
		x = l<<half | r
		if int(x) < n {
			return int(x)
		}
	}
}

// haltonAt is the scrambled Halton draw: the radical inverse of the block
// position in dimension dim's prime base, Cranley–Patterson rotated by a
// (seed, block, dim)-derived offset so distinct blocks (and seeds) see
// decorrelated copies of the sequence.
func haltonAt(seed int64, block, index, dim int) float64 {
	if dim >= len(haltonPrimes) {
		return overflowAt(seed, index, dim)
	}
	b, p := index/block, index%block
	x := radicalInverse(p, haltonPrimes[dim]) + unit(mash(saltHalton, uint64(seed), uint64(b), uint64(dim)))
	if x >= 1 {
		x--
	}
	return x
}

// overflowAt serves dimensions beyond a QMC kind's table: a hashed —
// pseudo-random but still (seed, index, dim)-addressed — draw. The
// suite's integrands live in a handful of dimensions, so overflow only
// exists to keep the contract total.
func overflowAt(seed int64, index, dim int) float64 {
	return unit(mash(saltOverflow, uint64(seed), uint64(index), uint64(dim)))
}

// radicalInverse reflects p's base-b digits about the radix point.
func radicalInverse(p, base int) float64 {
	inv := 1 / float64(base)
	f, rev := inv, 0.0
	for p > 0 {
		rev += float64(p%base) * f
		p /= base
		f *= inv
	}
	return rev
}

// haltonPrimes are the per-dimension bases: the first 32 primes. Halton
// dimensions beyond them fall back to hashed draws, like Sobol's overflow.
var haltonPrimes = [...]int{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
	59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
}
