package study

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// throughputWorkloads is a paper-shaped subset: the study's redundancy
// pattern (the same method rerun by several figures) at a size the
// benchmark can grow cold in seconds.
func throughputWorkloads(b *testing.B) []workloads.Workload {
	b.Helper()
	ids := []string{
		"pearson/spark2.1/medium",
		"scan/hadoop2.7/medium",
		"lr/spark1.5/medium",
		"als/spark2.1/medium",
	}
	ws := make([]workloads.Workload, 0, len(ids))
	for _, id := range ids {
		w, err := workloads.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// throughputRunner builds a Runner over throughputWorkloads.
func throughputRunner(b *testing.B, opts ...Option) *Runner {
	b.Helper()
	return NewRunner(sim.New(cloud.DefaultCatalog()), append([]Option{WithWorkloads(throughputWorkloads(b))}, opts...)...)
}

// studySlice replays the cross-experiment redundancy of cmd/arrow-study:
// a Figure 9-style CDF over all three BO methods, the Figure 1 region
// classification (which reruns the Naive line), a Figure 12-style
// comparison (which reruns both stopping configurations), and a
// breakdown (which reruns the Augmented line). Without the run cache
// every block pays for its searches again.
func studySlice(b *testing.B, r *Runner, seeds int) {
	b.Helper()
	mcs := []MethodConfig{{Method: MethodNaive}, {Method: MethodAugmented}, {Method: MethodHybrid}}
	if _, err := r.SearchCostCDF(mcs, core.MinimizeCost, seeds); err != nil {
		b.Fatal(err)
	}
	regions, err := r.ClassifyRegions(core.MinimizeCost, seeds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Compare(
		MethodConfig{Method: MethodNaive, EIStop: 0.10},
		MethodConfig{Method: MethodAugmented, Delta: 1.1},
		core.MinimizeCost, seeds, regions); err != nil {
		b.Fatal(err)
	}
	if _, err := r.BreakdownByGroup(MethodConfig{Method: MethodAugmented}, core.MinimizeCost, seeds, ByCategory); err != nil {
		b.Fatal(err)
	}
}

const throughputSeeds = 2

// BenchmarkStudyThroughputCold measures the study slice on a fresh
// Runner per iteration: every distinct search executes once, and the
// reported dedup-ratio is the in-run redundancy the cache absorbs
// (region classification, comparisons and breakdowns re-requesting
// already-run searches).
func BenchmarkStudyThroughputCold(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := throughputRunner(b)
		studySlice(b, r, throughputSeeds)
		runs, _ := r.CacheStats()
		ratio = runs.ReuseRatio()
	}
	b.ReportMetric(ratio, "dedup-ratio")
}

// BenchmarkStudyThroughputWarm measures the same slice against a primed
// Runner: every search is a cache hit, so this is the floor a warm
// `arrow-study` re-run pays (aggregation only).
func BenchmarkStudyThroughputWarm(b *testing.B) {
	r := throughputRunner(b)
	studySlice(b, r, throughputSeeds) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studySlice(b, r, throughputSeeds)
	}
	b.StopTimer()
	runs, _ := r.CacheStats()
	b.ReportMetric(runs.ReuseRatio(), "dedup-ratio")
}

// BenchmarkNewRunner measures a cold Runner's bring-up the way the
// end-to-end study-cold workload times it (its setup_s): a fresh
// simulator, a given study set and an empty cache directory, which the
// untimed part of each iteration creates.
func BenchmarkNewRunner(b *testing.B) {
	ws := throughputWorkloads(b)
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r := NewRunner(sim.New(cloud.DefaultCatalog()), WithWorkloads(ws), WithCacheDir(dir), WithConcurrency(2))
		b.StopTimer()
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
