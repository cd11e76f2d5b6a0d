// Benchmark comparing Naive BO's acquisition variants and the ARD
// extension, complementing the paper's EI-only baseline.
package arrow

import (
	"fmt"
	"testing"

	"repro/internal/acquisition"
	"repro/internal/core"
)

// BenchmarkAcquisitionComparison sweeps the GP acquisitions (EI, PI,
// GP-UCB, MES) plus ARD-enabled EI over the ablation workload set and
// reports mean steps to the optimum.
func BenchmarkAcquisitionComparison(b *testing.B) {
	r := benchRunner()
	ws := ablationWorkloads(b)
	type variant struct {
		label string
		cfg   core.Config
	}
	variants := []variant{
		{"EI (CherryPick)", core.Config{Acquisition: acquisition.ExpectedImprovement}},
		{"PI", core.Config{Acquisition: acquisition.ProbabilityOfImprovement}},
		{"GP-UCB", core.Config{Acquisition: acquisition.UpperConfidenceBound}},
		{"MES", core.Config{Acquisition: acquisition.EntropySearch}},
		{"EI + ARD", core.Config{Acquisition: acquisition.ExpectedImprovement, ARD: true}},
		{"EI + auto-kernel", core.Config{Acquisition: acquisition.ExpectedImprovement, AutoKernel: true}},
	}
	results := make([]float64, len(variants))
	for i := 0; i < b.N; i++ {
		for vi, v := range variants {
			total, n := 0.0, 0
			for _, w := range ws {
				truth, err := r.TruthValues(w, core.MinimizeCost)
				if err != nil {
					b.Fatal(err)
				}
				optIdx := 0
				for j, val := range truth {
					if val < truth[optIdx] {
						optIdx = j
					}
				}
				for seed := 0; seed < benchSeeds(); seed++ {
					cfg := v.cfg
					cfg.Method = core.MethodNaiveBO
					cfg.Objective = core.MinimizeCost
					cfg.EIStopFraction = -1
					cfg.Seed = int64(seed)
					naive, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := naive.Search(r.Simulator().NewTarget(w, int64(seed)))
					if err != nil {
						b.Fatal(err)
					}
					step := res.MeasuredAtStep(optIdx)
					if step == 0 {
						step = r.Catalog().Len() + 1
					}
					total += float64(step)
					n++
				}
			}
			results[vi] = total / float64(n)
		}
	}
	b.StopTimer()
	fmt.Printf("\nNaive BO acquisition comparison (cost objective, mean steps to optimal over %d workloads x %d seeds):\n",
		len(ws), benchSeeds())
	for vi, v := range variants {
		fmt.Printf("  %-18s %.2f\n", v.label, results[vi])
	}
}
