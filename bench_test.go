// Micro-benchmarks of the core components, plus the shared study runner
// and repetition count the extension benchmarks use. The paper's tables
// and figures are regenerated by cmd/arrow-study, not here.
//
// The repetition count per workload defaults to a laptop-friendly value;
// set ARROW_BENCH_SEEDS=100 to match the paper's 100 repeats.
package arrow

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/study"
	"repro/internal/workloads"
)

// benchSeeds returns the per-workload repetition count.
func benchSeeds() int {
	if v := os.Getenv("ARROW_BENCH_SEEDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

var (
	benchRunnerOnce sync.Once
	benchRunnerVal  *study.Runner
)

// benchRunner lazily builds one shared full-study Runner.
func benchRunner() *study.Runner {
	benchRunnerOnce.Do(func() {
		benchRunnerVal = study.NewRunner(sim.New(cloud.DefaultCatalog()))
	})
	return benchRunnerVal
}

// --- Micro-benchmarks of the core components -----------------------------

// BenchmarkGPFit measures one GP hyperparameter-grid fit at catalog scale.
func BenchmarkGPFit(b *testing.B) {
	xs := make([][]float64, 18)
	ys := make([]float64, 18)
	for i := range xs {
		xs[i] = []float64{float64(i) / 18, float64(i % 3), float64(i % 2)}
		ys[i] = float64(i*i%7) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Fit(gp.Config{Kernel: kernel.Matern52}, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit measures one Extra-Trees fit at the pairwise training
// set's full size (18 x 17 rows, 14 features).
func BenchmarkForestFit(b *testing.B) {
	const rows, dims = 18 * 17, 14
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, dims)
		for j := range xs[i] {
			xs[i][j] = float64((i*31 + j*17) % 100)
		}
		ys[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Fit(forest.Config{Seed: int64(i)}, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMeasure measures one simulated cloud measurement.
func BenchmarkSimulatorMeasure(b *testing.B) {
	s := sim.New(cloud.DefaultCatalog())
	w, err := workloads.ByID("als/spark2.1/medium")
	if err != nil {
		b.Fatal(err)
	}
	vm := s.Catalog().VM(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Measure(w, vm, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSimulatedTarget measures building one simulated target: the
// workload lookup, the feasibility check and the simulator behind it.
func BenchmarkNewSimulatedTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewSimulatedTarget("als/spark2.1/medium", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSearchNaive measures one complete Naive BO search.
func BenchmarkFullSearchNaive(b *testing.B) {
	benchFullSearch(b, study.MethodConfig{Method: study.MethodNaive, EIStop: -1})
}

// BenchmarkFullSearchAugmented measures one complete Augmented BO search.
// No tracer is attached, so this doubles as the no-op observability
// guard: every emission site costs one nil check here.
func BenchmarkFullSearchAugmented(b *testing.B) {
	benchFullSearch(b, study.MethodConfig{Method: study.MethodAugmented, Delta: -1})
}

// BenchmarkFullSearchAugmentedTraced runs the same search with a metrics
// aggregator attached, quantifying the live-tracing overhead against the
// untraced benchmark above.
func BenchmarkFullSearchAugmentedTraced(b *testing.B) {
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		b.Fatal(err)
	}
	metrics := NewTraceMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := New(WithMethod(MethodAugmentedBO), WithDeltaThreshold(-1),
			WithSeed(int64(i)), WithTracer(metrics))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Search(target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFullSearch runs mc's search on a bare simulated target, not
// through Runner.RunSearch: the study settles a search with stopping
// disabled once it has measured the optimum, and these benchmarks
// measure the whole search.
func benchFullSearch(b *testing.B, mc study.MethodConfig) {
	b.Helper()
	r := benchRunner()
	w, err := r.WorkloadByID("als/spark2.1/medium")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := mc.Build(core.MinimizeCost, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Search(r.Simulator().NewTarget(w, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSearch extends the search to the joint (VM type, node
// count) space CherryPick targeted: 72 candidates instead of 18, same
// optimizers.
func BenchmarkClusterSearch(b *testing.B) {
	single := sim.New(cloud.DefaultCatalog())
	clusterCatalog, err := cluster.NewCatalog(single.Catalog(), nil)
	if err != nil {
		b.Fatal(err)
	}
	cs := cluster.NewSimulator(single)
	ids := []string{"word2vec/spark2.1/medium", "lr/spark1.5/medium", "scan/hadoop2.7/medium", "als/spark2.1/medium"}

	type row struct {
		method string
		cost   float64
		norm   float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, mc := range []study.MethodConfig{
			{Method: study.MethodNaive, EIStop: 0.1},
			{Method: study.MethodAugmented, Delta: 1.1},
		} {
			var sumCost, sumNorm float64
			n := 0
			for _, id := range ids {
				w, err := workloads.ByID(id)
				if err != nil {
					b.Fatal(err)
				}
				// Ground truth over the 72-config space.
				best := -1.0
				truth := make([]float64, clusterCatalog.Len())
				for ci := 0; ci < clusterCatalog.Len(); ci++ {
					res, err := cs.Truth(w, clusterCatalog.Config(ci))
					if err != nil {
						b.Fatal(err)
					}
					truth[ci] = res.CostUSD
					if best < 0 || res.CostUSD < best {
						best = res.CostUSD
					}
				}
				for seed := 0; seed < benchSeeds(); seed++ {
					opt, err := mc.Build(core.MinimizeCost, int64(seed))
					if err != nil {
						b.Fatal(err)
					}
					res, err := opt.Search(cs.NewTarget(clusterCatalog, w, int64(seed)))
					if err != nil {
						b.Fatal(err)
					}
					sumCost += float64(res.NumMeasurements())
					sumNorm += truth[res.BestIndex] / best
					n++
				}
			}
			rows = append(rows, row{method: mc.Label(), cost: sumCost / float64(n), norm: sumNorm / float64(n)})
		}
	}
	b.StopTimer()
	fmt.Printf("\nCluster-scale search (72 configs, cost objective, %d workloads x %d seeds):\n", len(ids), benchSeeds())
	for _, r := range rows {
		fmt.Printf("  %-26s mean search cost %.1f, found %.2fx optimal\n", r.method, r.cost, r.norm)
	}
}
