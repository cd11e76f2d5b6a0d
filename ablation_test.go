// Ablation benchmarks for the design choices DESIGN.md calls out: the
// value of the low-level augmentation itself, the hybrid handover point,
// the initial-design strategy, and historical warm starting.
package arrow

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/study"
	"repro/internal/workloads"
)

// ablationWorkloads is a small, diverse slice of the study set used by the
// ablation benchmarks (full-set sweeps live in the Fig benchmarks).
func ablationWorkloads(b *testing.B) []workloads.Workload {
	b.Helper()
	r := benchRunner()
	ids := []string{
		"lr/spark1.5/medium",             // memory bottleneck
		"classification/spark2.1/medium", // memory bottleneck
		"scan/hadoop2.7/medium",          // I/O bound
		"word2vec/spark2.1/medium",       // CPU bound
		"als/spark2.1/medium",            // mixed
		"bayes/spark2.1/medium",          // mixed
		"kmeans/spark1.5/medium",         // mixed
		"terasort/hadoop2.7/large",       // I/O bound
	}
	var out []workloads.Workload
	for _, id := range ids {
		w, err := r.WorkloadByID(id)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// meanStepsToOptimal averages (over workloads x seeds) the step at which
// the optimizer first measured the true optimal VM.
func meanStepsToOptimal(b *testing.B, mc study.MethodConfig, ws []workloads.Workload, objective core.Objective) float64 {
	b.Helper()
	r := benchRunner()
	total, n := 0.0, 0
	for _, w := range ws {
		for seed := 0; seed < benchSeeds(); seed++ {
			summary, err := r.RunSearch(mc, w, objective, int64(seed))
			if err != nil {
				b.Fatal(err)
			}
			step := summary.StepOptimal
			if step == 0 {
				step = r.Catalog().Len() + 1
			}
			total += float64(step)
			n++
		}
	}
	return total / float64(n)
}

// BenchmarkAblationLowLevel quantifies the paper's central design choice:
// the same pairwise Extra-Trees optimizer with and without the low-level
// metric columns.
func BenchmarkAblationLowLevel(b *testing.B) {
	r := benchRunner()
	ws := ablationWorkloads(b)
	run := func(disable bool) float64 {
		total, n := 0.0, 0
		for _, w := range ws {
			truth, err := r.TruthValues(w, core.MinimizeCost)
			if err != nil {
				b.Fatal(err)
			}
			optIdx := 0
			for i, v := range truth {
				if v < truth[optIdx] {
					optIdx = i
				}
			}
			for seed := 0; seed < benchSeeds(); seed++ {
				aug, err := core.New(core.Config{
					Method:          core.MethodAugmentedBO,
					Objective:       core.MinimizeCost,
					DeltaThreshold:  -1,
					DisableLowLevel: disable,
					Seed:            int64(seed),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := aug.Search(r.Simulator().NewTarget(w, int64(seed)))
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
		return total / float64(n)
	}
	var full, ablated float64
	for i := 0; i < b.N; i++ {
		full = run(false)
		ablated = run(true)
	}
	b.StopTimer()
	fmt.Printf("\nAblation (cost objective, mean steps to optimal over %d workloads x %d seeds):\n", len(ws), benchSeeds())
	fmt.Printf("  with low-level metrics:    %.2f\n", full)
	fmt.Printf("  without low-level metrics: %.2f\n", ablated)
}

// BenchmarkAblationHybridSwitch sweeps Hybrid BO's handover point.
func BenchmarkAblationHybridSwitch(b *testing.B) {
	ws := ablationWorkloads(b)
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, switchAfter := range []int{3, 4, 6, 8} {
			results[switchAfter] = meanStepsToOptimal(b,
				study.MethodConfig{Method: study.MethodHybrid, SwitchAfter: switchAfter, Delta: -1},
				ws, core.MinimizeCost)
		}
	}
	b.StopTimer()
	fmt.Printf("\nAblation: Hybrid BO handover point (mean steps to optimal):\n")
	for _, s := range []int{3, 4, 6, 8} {
		fmt.Printf("  switch after %d measurements: %.2f\n", s, results[s])
	}
}

// BenchmarkAblationInitialDesign compares the quasi-random max-min design
// against uniform sampling and the Sobol' sequence for Naive BO
// (Section III-C).
func BenchmarkAblationInitialDesign(b *testing.B) {
	ws := ablationWorkloads(b)
	var quasi, uniform, sobol float64
	for i := 0; i < b.N; i++ {
		quasi = meanStepsToOptimal(b,
			study.MethodConfig{Method: study.MethodNaive, EIStop: -1,
				Design: core.DesignConfig{Kind: core.DesignQuasiRandom}},
			ws, core.MinimizeCost)
		uniform = meanStepsToOptimal(b,
			study.MethodConfig{Method: study.MethodNaive, EIStop: -1,
				Design: core.DesignConfig{Kind: core.DesignUniform}},
			ws, core.MinimizeCost)
		sobol = meanStepsToOptimal(b,
			study.MethodConfig{Method: study.MethodNaive, EIStop: -1,
				Design: core.DesignConfig{Kind: core.DesignSobol}},
			ws, core.MinimizeCost)
	}
	b.StopTimer()
	fmt.Printf("\nAblation: initial design for Naive BO (mean steps to optimal):\n")
	fmt.Printf("  quasi-random (max-min): %.2f\n", quasi)
	fmt.Printf("  uniform random:         %.2f\n", uniform)
	fmt.Printf("  sobol sequence:         %.2f\n", sobol)
}

// BenchmarkWarmStart measures the future-work extension: warm-starting
// Augmented BO with history from the same application at a different
// input size.
func BenchmarkWarmStart(b *testing.B) {
	r := benchRunner()
	target, err := r.WorkloadByID("kmeans/spark2.1/medium")
	if err != nil {
		b.Fatal(err)
	}
	historyW, err := r.WorkloadByID("kmeans/spark2.1/small")
	if err != nil {
		b.Fatal(err)
	}
	// Record full history of the small-input run.
	var history []core.PriorObservation
	ht := r.Simulator().NewTarget(historyW, 1234)
	for i := 0; i < ht.NumCandidates(); i++ {
		out, err := ht.Measure(i)
		if err != nil {
			b.Fatal(err)
		}
		history = append(history, core.PriorObservation{
			Features: ht.Features(i),
			Metrics:  out.Metrics,
			Value:    out.CostUSD,
		})
	}
	truth, err := r.TruthValues(target, core.MinimizeCost)
	if err != nil {
		b.Fatal(err)
	}
	optIdx := 0
	for i, v := range truth {
		if v < truth[optIdx] {
			optIdx = i
		}
	}

	run := func(warm []core.PriorObservation) float64 {
		total, n := 0.0, 0
		for seed := 0; seed < benchSeeds(); seed++ {
			aug, err := core.New(core.Config{
				Method:         core.MethodAugmentedBO,
				Objective:      core.MinimizeCost,
				DeltaThreshold: -1,
				WarmStart:      warm,
				Seed:           int64(seed),
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := aug.Search(r.Simulator().NewTarget(target, int64(seed)))
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
		return total / float64(n)
	}
	var cold, warm float64
	for i := 0; i < b.N; i++ {
		cold = run(nil)
		warm = run(history)
	}
	b.StopTimer()
	fmt.Printf("\nWarm start (kmeans/spark2.1 medium seeded by small-input history):\n")
	fmt.Printf("  cold start mean steps to optimal: %.2f\n", cold)
	fmt.Printf("  warm start mean steps to optimal: %.2f\n", warm)
}
