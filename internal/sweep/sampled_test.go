package sweep

import (
	"math"
	"testing"

	"repro/internal/sampler"
)

// drawPair is what the sampled tests compute per job: two dimension-
// addressed draws, enough to expose any divergence bit-for-bit.
type drawPair struct {
	A, B float64
}

func pairJob(i int, d sampler.Draws) (drawPair, error) {
	return drawPair{A: d.Float64(0), B: d.Float64(1)}, nil
}

// TestRunSampledShardSplit: for every sampler kind, splitting a sweep
// across K stride shards and overlaying the owned slots reproduces the
// unsharded run byte-for-byte — the shard protocol is sampler-agnostic
// because draws are pure in (seed, index, dimension).
func TestRunSampledShardSplit(t *testing.T) {
	const n, block = 60, 12
	for _, kind := range sampler.Kinds() {
		src := sampler.New(kind, block)
		full, err := RunSampled(n, pairJob, Options{BaseSeed: 99, Sampler: src})
		if err != nil {
			t.Fatalf("%v: full run: %v", kind, err)
		}
		for _, k := range []int{1, 3, 7} {
			merged := make([]drawPair, n)
			for shard := 0; shard < k; shard++ {
				part, err := RunSampled(n, pairJob, Options{
					BaseSeed: 99,
					Sampler:  src,
					Shard:    Shard{Index: shard, Count: k},
				})
				if err != nil {
					t.Fatalf("%v: shard %d/%d: %v", kind, shard, k, err)
				}
				for i := range part {
					if (Shard{Index: shard, Count: k}).Owns(i) {
						merged[i] = part[i]
					}
				}
			}
			for i := range full {
				if merged[i] != full[i] {
					t.Fatalf("%v K=%d: index %d: sharded %+v != full %+v",
						kind, k, i, merged[i], full[i])
				}
			}
		}
	}
}

// TestRunAdapterMatchesRunSampledPseudo: under the default pseudo sampler,
// RunSampled hands job i the dimensions 0, 1, … of its legacy private
// stream sweep.Rand(BaseSeed, i), bit for bit.
func TestRunAdapterMatchesRunSampledPseudo(t *testing.T) {
	const n = 40
	sampled, err := RunSampled(n, pairJob, Options{BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sampled {
		rng := Rand(7, i)
		if legacy := (drawPair{A: rng.Float64(), B: rng.Float64()}); legacy != sampled[i] {
			t.Fatalf("index %d: legacy %+v != sampled %+v", i, legacy, sampled[i])
		}
	}
}

// TestRunBatchedSampledMatchesScalar: the batched accessor hands out the
// same draw handles as the scalar path for every sampler kind and any row
// size, including rows that straddle block boundaries.
func TestRunBatchedSampledMatchesScalar(t *testing.T) {
	const n, block = 48, 12
	for _, kind := range sampler.Kinds() {
		src := sampler.New(kind, block)
		scalar, err := RunSampled(n, pairJob, Options{BaseSeed: 31, Sampler: src})
		if err != nil {
			t.Fatalf("%v: scalar: %v", kind, err)
		}
		for _, rowSize := range []int{1, 5, 16, 48} {
			batched, err := RunBatchedSampled(n, rowSize, func(indices []int, at func(i int) sampler.Draws) ([]drawPair, error) {
				out := make([]drawPair, len(indices))
				for k, i := range indices {
					d := at(i)
					out[k] = drawPair{A: d.Float64(0), B: d.Float64(1)}
				}
				return out, nil
			}, Options{BaseSeed: 31, Sampler: src})
			if err != nil {
				t.Fatalf("%v rowSize %d: %v", kind, rowSize, err)
			}
			for i := range scalar {
				if batched[i] != scalar[i] {
					t.Fatalf("%v rowSize %d index %d: batched %+v != scalar %+v",
						kind, rowSize, i, batched[i], scalar[i])
				}
			}
		}
	}
}

// TestStratifiedSweepReducesVariance: an end-to-end sweep-level check that
// Options.Sampler changes the estimator, not just the plumbing — the
// stratified mean of f(u)=u² over one block is closer to 1/3 than pseudo.
func TestStratifiedSweepReducesVariance(t *testing.T) {
	const n = 200
	estimate := func(src *sampler.Source) float64 {
		vs, err := RunSampled(n, func(i int, d sampler.Draws) (float64, error) {
			u := d.Float64(0)
			return u * u, nil
		}, Options{BaseSeed: 17, Sampler: src})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		return sum / n
	}
	pseudoErr := math.Abs(estimate(sampler.New(sampler.Pseudo, n)) - 1.0/3)
	stratErr := math.Abs(estimate(sampler.New(sampler.Stratified, n)) - 1.0/3)
	if stratErr >= pseudoErr {
		t.Errorf("stratified error %.3g not below pseudo %.3g", stratErr, pseudoErr)
	}
}
