package forest

import (
	"math/rand"
	"reflect"
	"testing"
)

// pairTraining synthesizes a pairwise training set over numUnits
// observation units, shaped like the optimizer's pair cache: one row per
// ordered unit pair plus one self row per unit, with the row's unit pair
// recorded for sampling.
func pairTraining(rng *rand.Rand, numUnits, dims int) (xs [][]float64, ys []float64, units [][2]int32) {
	feat := make([][]float64, numUnits)
	for u := range feat {
		row := make([]float64, dims)
		for j := range row {
			row[j] = rng.Float64()
		}
		feat[u] = row
	}
	addRow := func(a, b int) {
		row := make([]float64, 0, 2*dims)
		row = append(row, feat[a]...)
		row = append(row, feat[b]...)
		xs = append(xs, row)
		ys = append(ys, feat[b][0]*10+feat[a][dims-1]+0.01*rng.NormFloat64())
		units = append(units, [2]int32{int32(a), int32(b)})
	}
	// Measurement order: when unit k lands, its self row and its pairs
	// with every earlier unit append after everything already there —
	// the append-only growth the optimizer's cache produces.
	for k := 0; k < numUnits; k++ {
		addRow(k, k)
		for j := 0; j < k; j++ {
			addRow(j, k)
			addRow(k, j)
		}
	}
	return xs, ys, units
}

// rowsForUnits filters a full pair training set down to the rows whose
// units are both below limit, mimicking the append-only growth of the
// optimizer's cache as units get measured.
func rowsForUnits(xs [][]float64, ys []float64, units [][2]int32, limit int32) ([][]float64, []float64, [][2]int32) {
	var fx [][]float64
	var fy []float64
	var fu [][2]int32
	for i, u := range units {
		if u[0] < limit && u[1] < limit {
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
			fu = append(fu, u)
		}
	}
	return fx, fy, fu
}

func sampledConfig(seed int64) Config {
	return Config{NumTrees: 60, Seed: seed, SampleRate: 0.7, Parallelism: 1}
}

// TestRefitBitIdenticalToFitSampled grows the training set unit by unit
// and demands Refit reproduce FitSampled's trees exactly while actually
// reusing some of them.
func TestRefitBitIdenticalToFitSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys, units := pairTraining(rng, 12, 4)
	cfg := sampledConfig(33)

	var prev *Regressor
	sawReuse := false
	for limit := int32(3); limit <= 12; limit++ {
		fx, fy, fu := rowsForUnits(xs, ys, units, limit)
		next, info, err := Refit(prev, cfg, fx, fy, fu)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if wantInc := prev != nil; info.Incremental != wantInc {
			t.Fatalf("limit %d: Incremental=%v, want %v", limit, info.Incremental, wantInc)
		}
		if info.Incremental && info.ReusedTrees > 0 {
			sawReuse = true
		}
		full, err := FitSampled(cfg, fx, fy, fu)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next.trees, full.trees) {
			t.Fatalf("limit %d: refit trees diverge from full fit", limit)
		}
		prev = next
	}
	if !sawReuse {
		t.Fatal("no refit step reused any tree; sampling is not delta-aware")
	}
}

// TestRefitReusePreservesPredictions is the black-box version: posterior
// means and variances after a chain of refits match a from-scratch fit
// bitwise.
func TestRefitReusePreservesPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ys, units := pairTraining(rng, 10, 3)
	cfg := sampledConfig(7)
	fx, fy, fu := rowsForUnits(xs, ys, units, 6)
	prev, err := FitSampled(cfg, fx, fy, fu)
	if err != nil {
		t.Fatal(err)
	}
	fx, fy, fu = rowsForUnits(xs, ys, units, 10)
	inc, _, err := Refit(prev, cfg, fx, fy, fu)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FitSampled(cfg, fx, fy, fu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := xs[rng.Intn(len(xs))]
		gm, gv, err := inc.PredictWithVariance(q)
		if err != nil {
			t.Fatal(err)
		}
		wm, wv, err := full.PredictWithVariance(q)
		if err != nil {
			t.Fatal(err)
		}
		if gm != wm || gv != wv {
			t.Fatalf("probe %d: incremental (%v, %v), full (%v, %v)", i, gm, gv, wm, wv)
		}
	}
}

// TestRefitFallsBackOnMismatch: a changed config or a rewritten prefix
// row must force (and report) a full re-grow that still matches
// FitSampled.
func TestRefitFallsBackOnMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys, units := pairTraining(rng, 8, 3)
	cfg := sampledConfig(5)
	prev, err := FitSampled(cfg, xs, ys, units)
	if err != nil {
		t.Fatal(err)
	}

	// Different seed: the sampling scheme itself changes.
	other := cfg
	other.Seed = 6
	reg, info, err := Refit(prev, other, xs, ys, units)
	if err != nil {
		t.Fatal(err)
	}
	if info.Incremental || info.ReusedTrees != 0 {
		t.Fatalf("seed change: info %+v, want full refit", info)
	}
	full, err := FitSampled(other, xs, ys, units)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reg.trees, full.trees) {
		t.Fatal("seed change: trees diverge from full fit")
	}

	// Rewritten row: prefix no longer matches bitwise.
	mutated := make([][]float64, len(xs))
	copy(mutated, xs)
	mutated[0] = append([]float64(nil), xs[0]...)
	mutated[0][0] += 0.5
	if _, info, err = Refit(prev, cfg, mutated, ys, units); err != nil {
		t.Fatal(err)
	}
	if info.Incremental {
		t.Fatalf("prefix change: info %+v, want full refit", info)
	}

	// Shrunk training set: not an extension.
	if _, info, err = Refit(prev, cfg, xs[:len(xs)-1], ys[:len(ys)-1], units[:len(units)-1]); err != nil {
		t.Fatal(err)
	}
	if info.Incremental {
		t.Fatalf("shrink: info %+v, want full refit", info)
	}

	// A plain Fit ensemble has no snapshot to reuse.
	plain, err := Fit(cfg, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err = Refit(plain, cfg, xs, ys, units); err != nil {
		t.Fatal(err)
	}
	if info.Incremental {
		t.Fatalf("plain prev: info %+v, want full refit", info)
	}
}

// TestFitSampledKeepAllMatchesFit: SampleRate 0 and 1 both mean "no
// subsampling", so the sampled ensemble must equal the plain Extra-Trees
// fit tree for tree.
func TestFitSampledKeepAllMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs, ys, units := pairTraining(rng, 6, 3)
	for _, rate := range []float64{0, 1} {
		cfg := Config{NumTrees: 20, Seed: 9, SampleRate: rate, Parallelism: 1}
		sampled, err := FitSampled(cfg, xs, ys, units)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Fit(cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sampled.trees, plain.trees) {
			t.Fatalf("rate %v: sampled trees differ from plain Fit", rate)
		}
	}
}

// TestFitSampledParallelismInvariant: the ensemble is bit-identical at
// any worker-pool size, sampling included.
func TestFitSampledParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs, ys, units := pairTraining(rng, 9, 4)
	cfg := sampledConfig(13)
	sequential, err := FitSampled(cfg, xs, ys, units)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5} {
		c := cfg
		c.Parallelism = workers
		got, err := FitSampled(c, xs, ys, units)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.trees, sequential.trees) {
			t.Fatalf("parallelism %d: trees diverge", workers)
		}
	}
}

// TestFitSampledValidation covers the unit-shape errors and bad rates.
func TestFitSampledValidation(t *testing.T) {
	xs := [][]float64{{1, 2}, {3, 4}}
	ys := []float64{1, 2}
	if _, err := FitSampled(Config{}, xs, ys, [][2]int32{{0, 0}}); err == nil {
		t.Error("unit count mismatch should fail")
	}
	if _, err := FitSampled(Config{}, xs, ys, [][2]int32{{0, 0}, {-1, 0}}); err == nil {
		t.Error("negative unit should fail")
	}
	if _, err := FitSampled(Config{SampleRate: 1.5}, xs, ys, [][2]int32{{0, 0}, {1, 1}}); err == nil {
		t.Error("rate > 1 should fail")
	}
}

// benchRefitState builds the cluster-scale (>=30 observed units)
// training set the acceptance criterion targets, plus its one-unit
// extension.
func benchRefitState(b *testing.B) (cfg Config, prevXs [][]float64, prevYs []float64, prevUnits [][2]int32, xs [][]float64, ys []float64, units [][2]int32, prev *Regressor) {
	rng := rand.New(rand.NewSource(19))
	xs, ys, units = pairTraining(rng, 33, 10)
	cfg = Config{NumTrees: 100, Seed: 3, SampleRate: 0.7}
	prevXs, prevYs, prevUnits = rowsForUnits(xs, ys, units, 32)
	var err error
	prev, err = FitSampled(cfg, prevXs, prevYs, prevUnits)
	if err != nil {
		b.Fatal(err)
	}
	return
}

// BenchmarkForestRefitIncremental measures the delta-aware refit after
// one new unit is measured at cluster scale: 32 observed units (1,056
// pair rows) growing to 33 (1,122 rows). Its Full twin re-grows every
// tree on the same inputs; the ratio is the incremental-refit speedup the
// PR claims.
func BenchmarkForestRefitIncremental(b *testing.B) {
	cfg, _, _, _, xs, ys, units, prev := benchRefitState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, info, err := Refit(prev, cfg, xs, ys, units)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Incremental || info.ReusedTrees == 0 {
			b.Fatalf("refit was not incremental: %+v", info)
		}
		_ = reg
	}
}

// BenchmarkForestRefitFull is the from-scratch sampled baseline on the
// same grown training set — the cost of Refit's fallback path.
func BenchmarkForestRefitFull(b *testing.B) {
	cfg, _, _, _, xs, ys, units, _ := benchRefitState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitSampled(cfg, xs, ys, units); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestRefitLegacy is the pre-incremental per-iteration cost on
// the same grown training set: every tree re-grown on every row, exactly
// what each Observe paid before delta-aware refits. Incremental vs Legacy
// is the end-to-end refit speedup.
func BenchmarkForestRefitLegacy(b *testing.B) {
	cfg, _, _, _, xs, ys, _, _ := benchRefitState(b)
	cfg.SampleRate = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(cfg, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// searchTraining synthesizes the pairwise training set one augmented
// search builds as it measures numUnits VMs: row (src, dst) is
// features(src) ‖ lowlevel(src) ‖ features(dst), 4+6+4 columns, its
// target is the destination's measured log cost, and the k-th
// measurement appends (j, k) and (k, j) for every earlier j — the
// optimizer's pair-cache order. Instance features come from small
// discrete sets, as catalog attributes do, so their columns repeat
// values; the low-level metrics are continuous.
func searchTraining(rng *rand.Rand, numUnits int) (xs [][]float64, ys []float64, units [][2]int32) {
	feat := make([][]float64, numUnits)
	metrics := make([][]float64, numUnits)
	logCost := make([]float64, numUnits)
	for u := range feat {
		feat[u] = []float64{
			float64(int(2) << rng.Intn(4)), // vCPUs
			float64(int(2) << rng.Intn(3)), // GiB per vCPU
			float64(rng.Intn(3)),           // family
			float64(rng.Intn(2)),           // local SSD
		}
		metrics[u] = make([]float64, 6)
		for j := range metrics[u] {
			metrics[u][j] = rng.Float64()
		}
		logCost[u] = 2 + 0.4*feat[u][0]/(1+feat[u][1]) - 0.3*feat[u][2] + 0.2*metrics[u][0] + 0.05*rng.NormFloat64()
	}
	addRow := func(s, d int) {
		row := append(append(append(make([]float64, 0, 14), feat[s]...), metrics[s]...), feat[d]...)
		xs = append(xs, row)
		ys = append(ys, logCost[d])
		units = append(units, [2]int32{int32(s), int32(d)})
	}
	for k := 0; k < numUnits; k++ {
		for j := 0; j < k; j++ {
			addRow(j, k)
			addRow(k, j)
		}
	}
	return xs, ys, units
}

// BenchmarkForestRefitSearch replays one augmented search's refit chain
// at the traffic's scale rather than the cluster scale of the benchmarks
// above: 18 units measured one by one, a Refit after each, over 4+6+4
// columns at SampleRate 0.7 — 17 refits that re-grow 1,252 trees of
// ~58 rows on average, the size the study and the advisor grow.
func BenchmarkForestRefitSearch(b *testing.B) {
	const numUnits = 18
	xs, ys, units := searchTraining(rand.New(rand.NewSource(23)), numUnits)
	type step struct {
		xs    [][]float64
		ys    []float64
		units [][2]int32
	}
	var steps []step
	for m := int32(2); m <= numUnits; m++ {
		fx, fy, fu := rowsForUnits(xs, ys, units, m)
		steps = append(steps, step{fx, fy, fu})
	}
	cfg := Config{Seed: 5, SampleRate: 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prev *Regressor
		for _, s := range steps {
			reg, _, err := Refit(prev, cfg, s.xs, s.ys, s.units)
			if err != nil {
				b.Fatal(err)
			}
			prev = reg
		}
	}
}
