package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/forest"
)

// catalogValues is an 18-candidate objective landscape, catalog-sized like
// the paper's VM study.
func catalogValues() []float64 {
	out := make([]float64, 18)
	for i := range out {
		out[i] = 3 + 10*math.Abs(math.Sin(float64(i)*1.7))
	}
	return out
}

// augmentedResultAt runs one full augmented search at the given surrogate
// parallelism and returns the result.
func augmentedResultAt(t *testing.T, parallelism int) *Result {
	t.Helper()
	opt, err := New(Config{
		Method:         MethodAugmentedBO,
		Objective:      MinimizeCost,
		Seed:           11,
		DeltaThreshold: -1, // run the whole catalog: more iterations under comparison
		forest:         forest.Config{Parallelism: parallelism},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(newFakeTarget(catalogValues()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAugmentedSearchBitIdenticalAcrossParallelism is the end-to-end
// determinism contract: the same seed must walk the exact same measurement
// sequence whether the Extra-Trees surrogate runs on one worker or a pool.
// Run under -race this also exercises the concurrent fit and batched
// prediction for data races.
func TestAugmentedSearchBitIdenticalAcrossParallelism(t *testing.T) {
	sequential := augmentedResultAt(t, 1)
	for _, workers := range []int{0, 2, 7} {
		parallel := augmentedResultAt(t, workers)
		if !reflect.DeepEqual(sequential.Observations, parallel.Observations) {
			t.Fatalf("parallelism %d: measurement sequence diverged", workers)
		}
		if !reflect.DeepEqual(sequential.Steps, parallel.Steps) {
			t.Fatalf("parallelism %d: step trace (acquisition scores) diverged", workers)
		}
		if sequential.BestIndex != parallel.BestIndex || sequential.BestValue != parallel.BestValue {
			t.Fatalf("parallelism %d: best (%d, %v), want (%d, %v)",
				workers, parallel.BestIndex, parallel.BestValue, sequential.BestIndex, sequential.BestValue)
		}
	}
}

// TestHybridSearchBitIdenticalAcrossParallelism covers the handover path:
// the naive phase's batched GP predictions plus the augmented phase's pair
// cache built from observations it did not measure itself.
func TestHybridSearchBitIdenticalAcrossParallelism(t *testing.T) {
	runAt := func(parallelism int) *Result {
		opt, err := New(Config{Method: MethodHybridBO, Objective: MinimizeCost, Seed: 5, forest: forest.Config{Parallelism: parallelism}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Search(newFakeTarget(catalogValues()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := runAt(1)
	parallel := runAt(0)
	if !reflect.DeepEqual(sequential.Observations, parallel.Observations) {
		t.Fatal("hybrid measurement sequence diverged across parallelism settings")
	}
	if !reflect.DeepEqual(sequential.Steps, parallel.Steps) {
		t.Fatal("hybrid step trace diverged across parallelism settings")
	}
}

// BenchmarkAugmentedIteration measures one steady-state augmented
// iteration — pairwise surrogate refit plus batched candidate scoring —
// at the paper's scale: 9 observations over an 18-VM catalog. This is the
// loop body the search repeats after every measurement. The tree seed is
// fixed, exactly as in the search loop, so after the first iteration the
// fit takes the incremental path.
func BenchmarkAugmentedIteration(b *testing.B) {
	target := newFakeTarget(catalogValues())
	st, err := newSearchState(target, MinimizeCost)
	if err != nil {
		b.Fatal(err)
	}
	for idx := 0; idx < 9; idx++ {
		if ok, err := st.measure(idx, 0, true); err != nil || !ok {
			b.Fatalf("measure %d: ok=%v err=%v", idx, ok, err)
		}
	}
	opt, err := New(Config{Method: MethodAugmentedBO, Objective: MinimizeCost})
	if err != nil {
		b.Fatal(err)
	}
	aug := opt.(*optimizer)
	remaining := st.unmeasured()
	if len(remaining) != 9 {
		b.Fatalf("%d remaining, want 9", len(remaining))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := aug.selectByDelta(st, remaining, 42); err != nil {
			b.Fatal(err)
		}
	}
}
