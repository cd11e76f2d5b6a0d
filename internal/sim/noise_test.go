package sim

import (
	"math"
	"math/rand"
	"testing"
)

// noiseEdgeSeeds are the seeds where math/rand's seed normalization
// branches: 0 and the multiples of 2³¹−1 map to 89482311, negatives wrap.
var noiseEdgeSeeds = []int64{
	0, -1, 1, lehmerMod, -lehmerMod, lehmerMod - 1, lehmerMod + 1, 2 * lehmerMod, -2 * lehmerMod,
	math.MaxInt64 / lehmerMod * lehmerMod, math.MinInt64 / lehmerMod * lehmerMod,
	math.MinInt64, math.MaxInt64, 89482311,
}

// TestNoiseSourceMatchesMathRand holds draws 0–24 of noiseSource, past
// its closed-form window, to rand.NewSource's for over 10,000 seeds:
// the edge seeds, small seeds, and 64-bit seeds like noiseSeed's.
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), noiseEdgeSeeds...)
	for i := int64(-100); i <= 100; i++ {
		seeds = append(seeds, i)
	}
	for i := uint64(0); len(seeds) < 10240; i++ {
		seeds = append(seeds, int64(noiseSeed("seed", "vm", int64(i))))
	}
	src := new(noiseSource)
	for _, seed := range seeds {
		src.Seed(seed)
		ref := rand.NewSource(seed)
		for k := 0; k <= 24; k++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, k, got, want)
			}
		}
	}
}

// FuzzNoiseSource holds a reused noiseSource's Int63 stream, and the
// NormFloat64 stream of a reused pooled rand.Rand, to fresh math/rand
// ones. Each is first seeded elsewhere and drawn reseedAt times, as a
// pooled rng arrives, then seeded and drawn up to 64 times, past the
// closed-form window.
func FuzzNoiseSource(f *testing.F) {
	for _, seed := range noiseEdgeSeeds {
		f.Add(seed, uint8(noiseWindow+1), uint8(3))
	}
	f.Add(int64(7), uint8(64), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint8) {
		n, prior := int(draws)%65, int(reseedAt)%65
		src := new(noiseSource)
		src.Seed(^seed)
		for range prior {
			src.Int63()
		}
		src.Seed(seed)
		ref := rand.NewSource(seed)
		for k := range n {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d after %d: %d, math/rand %d", seed, k, prior, got, want)
			}
		}

		rng := rngPool.New().(*rand.Rand)
		rng.Seed(^seed)
		for range prior {
			rng.NormFloat64()
		}
		rng.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for k := range n {
			if got, want := rng.NormFloat64(), fresh.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d normal %d after %d: %v, math/rand %v", seed, k, prior, got, want)
			}
		}
	})
}
