package forest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// syntheticTraining builds a training set shaped like the augmented
// surrogate's pairwise matrix (18*17 rows, 14 features).
func syntheticTraining(rows, dims int) ([][]float64, []float64) {
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, dims)
		for j := range xs[i] {
			xs[i][j] = float64((i*31 + j*17) % 100)
		}
		ys[i] = float64(i % 13)
	}
	return xs, ys
}

// TestParallelFitBitIdentical is the determinism contract: the same seed
// must produce bit-identical trees and predictions whether the ensemble is
// grown sequentially or across a pool of workers. Run under -race this
// also proves the workers share no mutable state.
func TestParallelFitBitIdentical(t *testing.T) {
	xs, ys := syntheticTraining(18*17, 14)
	sequential, err := Fit(Config{Seed: 42, Parallelism: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5, runtime.GOMAXPROCS(0) + 3} {
		parallel, err := Fit(Config{Seed: 42, Parallelism: workers}, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel.trees) != len(sequential.trees) {
			t.Fatalf("parallelism %d: %d trees, want %d", workers, len(parallel.trees), len(sequential.trees))
		}
		for ti := range sequential.trees {
			a, b := &sequential.trees[ti], &parallel.trees[ti]
			if len(a.feature) != len(b.feature) {
				t.Fatalf("parallelism %d: tree %d has %d nodes, want %d", workers, ti, len(b.feature), len(a.feature))
			}
			if !reflect.DeepEqual(*a, *b) {
				t.Fatalf("parallelism %d: tree %d differs", workers, ti)
			}
		}
		for _, x := range xs[:20] {
			want, err := sequential.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parallel.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("parallelism %d: prediction %v, want bit-identical %v", workers, got, want)
			}
		}
	}
}

// TestPredictPairsMatchesPredict checks pair scoring against per-row
// Predict on the concatenated rows, bit for bit, over sampled and
// unsampled ensembles whose trees outgrow one mask word, at several
// source/destination column cuts and worker counts, with queries on split
// thresholds and at ±Inf and NaN.
func TestPredictPairsMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs, ys, units := pairTraining(rng, 20, 4)
	dims := len(xs[0])
	for _, rate := range []float64{0, 0.7, 1} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0) + 3} {
			cfg := Config{NumTrees: 12, Seed: 5, SampleRate: rate, Parallelism: workers}
			model, err := FitSampled(cfg, xs, ys, units)
			if err != nil {
				t.Fatal(err)
			}
			maxLeaves := 0
			for i := range model.trees {
				maxLeaves = max(maxLeaves, len(model.trees[i].leafValue))
			}
			if maxLeaves <= 64 {
				t.Fatalf("rate %v: largest tree has %d leaves; the test needs multi-word masks", rate, maxLeaves)
			}
			queries := pairQueries(rng, model, xs)
			for _, cut := range []int{0, 1, dims / 2, dims - 1} {
				srcs, dsts := columns(queries[:9], 0, cut), columns(queries[9:], cut, dims)
				want := make([]float64, len(srcs)*len(dsts))
				row := make([]float64, 0, dims)
				for d := range dsts {
					for s := range srcs {
						row = append(append(row[:0], srcs[s]...), dsts[d]...)
						if want[d*len(srcs)+s], err = model.Predict(row); err != nil {
							t.Fatal(err)
						}
					}
				}
				buf := make([]float64, 2, len(want)) // non-empty: must be reused, not appended to
				got, err := model.PredictPairs(srcs, dsts, buf)
				if err != nil {
					t.Fatal(err)
				}
				if &got[0] != &buf[:1][0] {
					t.Error("PredictPairs did not reuse the caller's buffer")
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rate %v workers %d cut %d pair %d: PredictPairs %v, Predict %v",
							rate, workers, cut, i, got[i], want[i])
					}
				}
			}
		}
	}

	model, err := Fit(Config{Seed: 1, NumTrees: 5}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	half := [][]float64{make([]float64, dims/2)}
	if _, err := model.PredictPairs(half, [][]float64{make([]float64, dims/2+1)}, nil); err == nil {
		t.Error("halves wider than the model: expected a dimension error")
	}
	if _, err := model.PredictPairs(half, [][]float64{make([]float64, dims/2-1)}, nil); err == nil {
		t.Error("halves narrower than the model: expected a dimension error")
	}
	if _, err := model.PredictPairs([][]float64{half[0], make([]float64, dims/2+1)}, half, nil); err == nil {
		t.Error("ragged sources: expected a dimension error")
	}
	if got, err := model.PredictPairs(nil, half, nil); err != nil || len(got) != 0 {
		t.Errorf("no sources: got %v, %v", got, err)
	}
}

// TestPredictBatchMatchesPredict checks PredictPairs used as a plain row
// batch: whole rows against one zero-width half, on either side, return
// exactly Predict's value for every row at any worker count.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	xs, ys, units := pairTraining(rng, 12, 4)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0) + 3} {
		model, err := FitSampled(Config{NumTrees: 8, Seed: 9, SampleRate: 0.7, Parallelism: workers}, xs, ys, units)
		if err != nil {
			t.Fatal(err)
		}
		rows := pairQueries(rng, model, xs)
		empty := [][]float64{{}}
		asSources, err := model.PredictPairs(rows, empty, nil)
		if err != nil {
			t.Fatal(err)
		}
		asDestinations, err := model.PredictPairs(empty, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(asSources) != len(rows) || len(asDestinations) != len(rows) {
			t.Fatalf("workers %d: %d and %d predictions for %d rows", workers, len(asSources), len(asDestinations), len(rows))
		}
		for i, x := range rows {
			want, err := model.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if asSources[i] != want || asDestinations[i] != want {
				t.Fatalf("workers %d row %d: PredictPairs %v / %v, Predict %v", workers, i, asSources[i], asDestinations[i], want)
			}
		}
	}
}

// TestPredictBatchDimensionMismatch checks the row-batch form of
// PredictPairs rejects whole rows of the wrong width and ragged
// destinations.
func TestPredictBatchDimensionMismatch(t *testing.T) {
	xs, ys, _ := pairTraining(rand.New(rand.NewSource(4)), 6, 3)
	dims := len(xs[0])
	model, err := Fit(Config{Seed: 1, NumTrees: 5}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	empty := [][]float64{{}}
	for _, width := range []int{dims - 1, dims + 1} {
		if _, err := model.PredictPairs([][]float64{make([]float64, width)}, empty, nil); err == nil {
			t.Errorf("source rows %d wide, model %d: expected a dimension error", width, dims)
		}
		if _, err := model.PredictPairs(empty, [][]float64{make([]float64, width)}, nil); err == nil {
			t.Errorf("destination rows %d wide, model %d: expected a dimension error", width, dims)
		}
	}
	ragged := [][]float64{make([]float64, dims), make([]float64, dims-1)}
	if _, err := model.PredictPairs(empty, ragged, nil); err == nil {
		t.Error("ragged destinations: expected a dimension error")
	}
}

// pairQueries draws full-width query rows: training rows, rows whose
// columns sit exactly on split thresholds, and rows mixing ±Inf and NaN
// in with random values.
func pairQueries(rng *rand.Rand, model *Regressor, xs [][]float64) [][]float64 {
	var thresholds []float64
	for i := range model.trees {
		for _, sp := range model.trees[i].splits {
			thresholds = append(thresholds, sp.threshold)
		}
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	queries := make([][]float64, 0, 40)
	for len(queries) < cap(queries) {
		q := append([]float64(nil), xs[rng.Intn(len(xs))]...)
		for j := range q {
			switch len(queries) % 3 {
			case 1:
				q[j] = thresholds[rng.Intn(len(thresholds))]
			case 2:
				if rng.Intn(3) == 0 {
					q[j] = special[rng.Intn(len(special))]
				}
			}
		}
		queries = append(queries, q)
	}
	return queries
}

// columns slices every row to its columns [lo, hi).
func columns(rows [][]float64, lo, hi int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = r[lo:hi]
	}
	return out
}

// BenchmarkForestFitParallel measures the tentpole: one Extra-Trees fit at
// pairwise-training-set scale, sequential vs. worker pool.
func BenchmarkForestFitParallel(b *testing.B) {
	xs, ys := syntheticTraining(18*17, 14)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("parallelism=%d", workers)
		if workers == 0 {
			name = fmt.Sprintf("parallelism=GOMAXPROCS(%d)", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(Config{Seed: int64(i), Parallelism: workers}, xs, ys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestPredictPairs measures one selection pass at the
// serve-plan workload's scale: 60 candidates scored against 10 measured
// sources through a 100-tree sampled ensemble over 16 columns, split 11
// source (5 instance features and 6 low-level metrics) and 5 destination,
// with the output buffer reused across iterations.
func BenchmarkForestPredictPairs(b *testing.B) {
	const srcWidth, dstWidth, sources, candidates = 11, 5, 10, 60
	rng := rand.New(rand.NewSource(3))
	halves := func(n, width int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, width)
			for j := range out[i] {
				out[i][j] = rng.Float64()
			}
		}
		return out
	}
	srcs, dsts := halves(sources, srcWidth), halves(candidates, dstWidth)
	// Train on every ordered pair of measured sources, as the optimizer
	// does: a source's own features lead its half.
	var xs [][]float64
	var ys []float64
	var units [][2]int32
	for a := range srcs {
		for d := range srcs {
			if a == d {
				continue
			}
			xs = append(xs, append(append([]float64(nil), srcs[a]...), srcs[d][:dstWidth]...))
			ys = append(ys, 3*srcs[d][0]+srcs[a][dstWidth]*srcs[d][1]+0.1*rng.NormFloat64())
			units = append(units, [2]int32{int32(a), int32(d)})
		}
	}
	model, err := FitSampled(Config{Seed: 3, SampleRate: 0.7}, xs, ys, units)
	if err != nil {
		b.Fatal(err)
	}
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = model.PredictPairs(srcs, dsts, out)
		if err != nil {
			b.Fatal(err)
		}
	}
}
