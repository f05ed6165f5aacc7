package sampler

import "math/rand"

// The pseudo kind's stream is math/rand's rngSource (Go 1's additive
// lagged-Fibonacci generator) seeded with SeedAt(seed, i), reproduced bit
// for bit without building the register.
//
// rngSource.Seed fills all rngLen register words from a Lehmer LCG,
// x ← 48271·x mod (2³¹−1), started at the reduced seed x₀ and advanced
// 20 times before the first word: word i is
//
//	(x₂₁₊₃ᵢ<<40) ^ (x₂₂₊₃ᵢ<<20) ^ x₂₃₊₃ᵢ ^ rngCooked[i],  xₙ = 48271ⁿ·x₀ mod (2³¹−1).
//
// Draw k (from 0) then adds and overwrites vec[feed] with feed = 333−k,
// reading tap = 606−k. The words written so far are 333…334−k, so for
// k < rngTap neither word has been touched since seeding: draw k is the
// sum of two seeded words, and each seeded word is three multiplications
// by a table power. A job that reads one or two draws therefore costs a
// few dozen nanoseconds and no allocation, where seeding the register
// costs ~1,800 LCG steps and 4.9 KB. Draws past the lazy prefix replay
// the real math/rand source once; no sweep job reaches them.

// math/rand's rngSource geometry and seeding constants.
const (
	rngLen      = 607
	rngTap      = 273
	rngMask     = 1<<63 - 1
	int32max    = 1<<31 - 1
	seedMul     = 48271
	seedZeroAlt = 89482311 // rngSource.Seed's replacement for a seed ≡ 0
)

// seedPowers[n] is 48271ⁿ mod (2³¹−1): the jump of the seeding LCG from
// x₀ to xₙ, for every n that rngSource.Seed reaches (n ≤ 23+3·606).
var seedPowers = func() (p [3*rngLen + 21]uint32) {
	x := uint64(1)
	for n := range p {
		p[n] = uint32(x)
		x = x * seedMul % int32max
	}
	return p
}()

// seedState reduces a seed exactly as rngSource.Seed does: x₀ ∈ [1, 2³¹−1).
func seedState(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZeroAlt
	}
	return uint64(seed)
}

// seededWord is register word i of an rngSource freshly seeded to x₀.
func seededWord(x0 uint64, i int) int64 {
	n := 21 + 3*i
	u := int64(uint64(seedPowers[n])*x0%int32max) << 40
	u ^= int64(uint64(seedPowers[n+1])*x0%int32max) << 20
	u ^= int64(uint64(seedPowers[n+2]) * x0 % int32max)
	return u ^ rngCooked[i]
}

// lazySource is math/rand's rngSource, seeded but not materialised: the
// first rngTap draws are computed from the seeded words they read, and the
// register is built (by the real math/rand source, advanced past the
// draws already taken) only when a stream runs longer. Its Uint64 and
// Int63 streams match rand.NewSource(seed)'s exactly.
type lazySource struct {
	x0   uint64        // the reduced seed
	k    int           // draws taken since seeding
	full rand.Source64 // the materialised register, once k reaches rngTap
}

// Uint64 returns the next draw of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.full == nil {
		if k := s.k; k < rngTap {
			s.k++
			return uint64(seededWord(s.x0, rngLen-rngTap-1-k) + seededWord(s.x0, rngLen-1-k))
		}
		full := rand.NewSource(int64(s.x0)).(rand.Source64)
		for range s.k {
			full.Uint64()
		}
		s.full = full
	}
	return s.full.Uint64()
}

// Int63 returns the next draw with its top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// nthFloat64 is the dim-th (from 0) value rand.Rand.Float64 returns over a
// fresh stream whose successive Int63 values next yields — including
// Float64's resample of a draw that rounds to 1.
func nthFloat64(next func() int64, dim int) float64 {
	for {
		f := float64(next()) / (1 << 63)
		if f == 1 {
			continue
		}
		if dim == 0 {
			return f
		}
		dim--
	}
}

// pseudoFloat64 is the dim-th rand.Rand.Float64 of the stream seeded with
// seed.
func pseudoFloat64(seed int64, dim int) float64 {
	s := lazySource{x0: seedState(seed)}
	return nthFloat64(s.Int63, dim)
}
