package study

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// testRunner builds a Runner over a small, diverse subset of the study set
// so tests stay fast: a CPU-bound stat, an I/O-bound Hadoop job, a
// memory-bound learner, and a mid-size ML job.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	s := sim.New(cloud.DefaultCatalog())
	ids := []string{
		"pearson/spark2.1/medium",
		"scan/hadoop2.7/medium",
		"lr/spark1.5/medium",
		"als/spark2.1/medium",
		"kmeans/spark2.1/small",
		"terasort/hadoop2.7/large",
	}
	var ws []workloads.Workload
	for _, id := range ids {
		w, err := workloads.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if !s.RunsEverywhere(w) {
			t.Fatalf("test workload %s not in study set", id)
		}
		ws = append(ws, w)
	}
	return NewRunner(s, WithWorkloads(ws))
}

func TestNewRunnerDefaultsToFullStudySet(t *testing.T) {
	r := NewRunner(sim.New(cloud.DefaultCatalog()))
	if got := len(r.Workloads()); got != 107 {
		t.Fatalf("default runner has %d workloads, want 107", got)
	}
}

// TestNewRunnerEmptyWorkloads checks that an empty WithWorkloads list
// gives an empty study set, not the default one.
func TestNewRunnerEmptyWorkloads(t *testing.T) {
	for _, ws := range [][]workloads.Workload{nil, {}} {
		r := NewRunner(sim.New(cloud.DefaultCatalog()), WithWorkloads(ws))
		if got := len(r.Workloads()); got != 0 {
			t.Errorf("WithWorkloads(%#v): runner has %d workloads, want 0", ws, got)
		}
	}
}

func TestTruthValuesCachedAndConsistent(t *testing.T) {
	r := testRunner(t)
	w := r.Workloads()[0]
	a, err := r.TruthValues(w, core.MinimizeTime)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.TruthValues(w, core.MinimizeTime)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("second call should hit the cache")
	}
	if len(a) != r.Catalog().Len() {
		t.Errorf("truth has %d entries", len(a))
	}
}

func TestOptimal(t *testing.T) {
	r := testRunner(t)
	w := r.Workloads()[0]
	idx, val, err := r.Optimal(w, core.MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := r.TruthValues(w, core.MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range truth {
		if v < val {
			t.Errorf("index %d (%v) better than reported optimum %d (%v)", i, v, idx, val)
		}
	}
}

func TestWorkloadByID(t *testing.T) {
	r := testRunner(t)
	if _, err := r.WorkloadByID("scan/hadoop2.7/medium"); err != nil {
		t.Error(err)
	}
	if _, err := r.WorkloadByID("nope"); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestRunSearchSummary(t *testing.T) {
	r := testRunner(t)
	w, _ := r.WorkloadByID("als/spark2.1/medium")
	mc := MethodConfig{Method: MethodAugmented, Delta: -1}
	summary, err := r.RunSearch(mc, w, core.MinimizeCost, 1)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Measurements != r.Catalog().Len() {
		t.Errorf("stopping disabled: measured %d of %d", summary.Measurements, r.Catalog().Len())
	}
	if summary.StepOptimal < 1 || summary.StepOptimal > r.Catalog().Len() {
		t.Errorf("StepOptimal = %d", summary.StepOptimal)
	}
	if summary.FoundNorm != 1.0 {
		t.Errorf("exhaustive search FoundNorm = %v, want 1.0", summary.FoundNorm)
	}
	// Trajectory must be non-increasing and end at 1.0.
	prev := math.Inf(1)
	for i, v := range summary.Trajectory {
		if v > prev+1e-12 {
			t.Errorf("trajectory increased at %d", i)
		}
		if v < 1 {
			t.Errorf("normalized trajectory below 1 at %d: %v", i, v)
		}
		prev = v
	}
	if last := summary.Trajectory[len(summary.Trajectory)-1]; last != 1.0 {
		t.Errorf("final trajectory = %v", last)
	}
}

func TestMethodConfigBuildAll(t *testing.T) {
	for _, mc := range []MethodConfig{
		{Method: MethodNaive},
		{Method: MethodAugmented},
		{Method: MethodHybrid},
		{Method: MethodRandom},
	} {
		opt, err := mc.Build(core.MinimizeTime, 1)
		if err != nil {
			t.Errorf("%v: %v", mc.Method, err)
			continue
		}
		if opt.Name() == "" {
			t.Errorf("%v: empty name", mc.Method)
		}
	}
	if _, err := (MethodConfig{}).Build(core.MinimizeTime, 1); err == nil {
		t.Error("zero method should fail")
	}
}

func TestMethodConfigLabels(t *testing.T) {
	if l := (MethodConfig{Method: MethodNaive, EIStop: 0.1}).Label(); !strings.Contains(l, "10") {
		t.Errorf("naive label %q should include threshold", l)
	}
	if l := (MethodConfig{Method: MethodAugmented, Delta: 1.1}).Label(); !strings.Contains(l, "1.1") {
		t.Errorf("augmented label %q should include threshold", l)
	}
	if l := (MethodConfig{Method: MethodHybrid}).Label(); l != "Hybrid BO" {
		t.Errorf("hybrid label %q", l)
	}
}

func TestSearchCostCDF(t *testing.T) {
	r := testRunner(t)
	cdfs, err := r.SearchCostCDF([]MethodConfig{{Method: MethodNaive}, {Method: MethodAugmented}}, core.MinimizeCost, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs) != 2 {
		t.Fatalf("%d CDFs", len(cdfs))
	}
	for _, cdf := range cdfs {
		if len(cdf.PerWorkload) != len(r.Workloads()) {
			t.Errorf("%s: %d workloads", cdf.Label, len(cdf.PerWorkload))
		}
		if len(cdf.FractionByBudget) != r.Catalog().Len() {
			t.Errorf("%s: %d budgets", cdf.Label, len(cdf.FractionByBudget))
		}
		prev := 0.0
		for m, frac := range cdf.FractionByBudget {
			if frac < prev {
				t.Errorf("%s: CDF decreases at budget %d", cdf.Label, m+1)
			}
			if frac < 0 || frac > 1 {
				t.Errorf("%s: fraction %v", cdf.Label, frac)
			}
			prev = frac
		}
		// Stopping is disabled, so every workload reaches the optimum by
		// the full budget.
		if last := cdf.FractionByBudget[r.Catalog().Len()-1]; last != 1.0 {
			t.Errorf("%s: CDF ends at %v, want 1.0", cdf.Label, last)
		}
	}
}

func TestFractionWithin(t *testing.T) {
	c := MethodCDF{FractionByBudget: []float64{0.1, 0.5, 1.0}}
	if c.FractionWithin(0) != 0 {
		t.Error("budget 0")
	}
	if c.FractionWithin(2) != 0.5 {
		t.Error("budget 2")
	}
	if c.FractionWithin(99) != 1.0 {
		t.Error("budget beyond range should clamp")
	}
}

func TestClassifyRegion(t *testing.T) {
	tests := []struct {
		cost int
		want Region
	}{
		{1, RegionI}, {6, RegionI}, {7, RegionII}, {12, RegionII}, {13, RegionIII}, {19, RegionIII},
	}
	for _, tt := range tests {
		if got := ClassifyRegion(tt.cost); got != tt.want {
			t.Errorf("ClassifyRegion(%d) = %v, want %v", tt.cost, got, tt.want)
		}
	}
}

func TestClassifyRegions(t *testing.T) {
	r := testRunner(t)
	regions, err := r.ClassifyRegions(core.MinimizeCost, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != len(r.Workloads()) {
		t.Fatalf("%d regions", len(regions))
	}
	for id, reg := range regions {
		if reg < RegionI || reg > RegionIII {
			t.Errorf("%s: region %v", id, reg)
		}
	}
}

func TestTrajectories(t *testing.T) {
	r := testRunner(t)
	w, _ := r.WorkloadByID("lr/spark1.5/medium")
	rep, err := r.Trajectories(MethodConfig{Method: MethodNaive}, w, core.MinimizeTime, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != r.Catalog().Len() {
		t.Fatalf("%d points", len(rep.Points))
	}
	prevMedian := math.Inf(1)
	for _, p := range rep.Points {
		if p.Q1 > p.Median || p.Median > p.Q3 {
			t.Errorf("step %d: quartiles out of order (%v, %v, %v)", p.Step, p.Q1, p.Median, p.Q3)
		}
		if p.Median > prevMedian+1e-12 {
			t.Errorf("step %d: median trajectory increased", p.Step)
		}
		prevMedian = p.Median
	}
	if final := rep.Points[len(rep.Points)-1]; final.Median != 1.0 {
		t.Errorf("final median = %v, want 1.0 (exhaustive)", final.Median)
	}
	if rep.MedianStepOptimal < 1 {
		t.Errorf("MedianStepOptimal = %v", rep.MedianStepOptimal)
	}
}

func TestKernelComparison(t *testing.T) {
	r := testRunner(t)
	w, _ := r.WorkloadByID("als/spark2.1/medium")
	reports, err := r.KernelComparison(w, core.MinimizeTime, kernel.All(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d reports", len(reports))
	}
	labels := map[string]bool{}
	for _, rep := range reports {
		labels[rep.Label] = true
	}
	for _, want := range []string{"RBF", "MATERN 1/2", "MATERN 3/2", "MATERN 5/2"} {
		if !labels[want] {
			t.Errorf("missing kernel label %q", want)
		}
	}
}

func TestInitialPointSensitivity(t *testing.T) {
	r := testRunner(t)
	reports, err := r.InitialPointSensitivity(core.MinimizeCost, map[string][]string{
		"paper-triplet": {"c4.xlarge", "m4.large", "r3.2xlarge"},
		"all-large":     {"c4.large", "m4.large", "r4.large"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.FailFraction < 0 || rep.FailFraction > 1 {
			t.Errorf("%s: fail fraction %v", rep.Label, rep.FailFraction)
		}
		if len(rep.PerWorkloadStep) != len(r.Workloads()) {
			t.Errorf("%s: %d per-workload entries", rep.Label, len(rep.PerWorkloadStep))
		}
	}
	if _, err := r.InitialPointSensitivity(core.MinimizeCost, map[string][]string{
		"bad": {"c9.mega"},
	}); err == nil {
		t.Error("unknown VM should fail")
	}
}

func TestStoppingSweep(t *testing.T) {
	r := testRunner(t)
	regions := map[string]Region{}
	for _, w := range r.Workloads() {
		regions[w.ID()] = RegionI
	}
	points, err := r.StoppingSweep(core.MinimizeCost, 2, []float64{0.1}, []float64{1.1, 1.3}, regions)
	if err != nil {
		t.Fatal(err)
	}
	// 3 configs x 1 non-empty region.
	if len(points) != 3 {
		t.Fatalf("%d sweep points", len(points))
	}
	for _, p := range points {
		if p.SearchCost < 3 || p.SearchCost > float64(r.Catalog().Len()) {
			t.Errorf("%s: search cost %v", p.Label, p.SearchCost)
		}
		if p.FoundNorm < 1 {
			t.Errorf("%s: found norm %v < 1", p.Label, p.FoundNorm)
		}
	}
	// A higher threshold keeps exploring while any VM is predicted within
	// theta x incumbent, so it stops no EARLIER than a lower one — the
	// paper's Figure 11 trade-off (1.25/1.3 match Naive BO's quality at
	// higher search cost; 1.1 is the recommended cheap point).
	var d11, d13 float64
	for _, p := range points {
		if p.Method == MethodAugmented && p.Threshold == 1.1 {
			d11 = p.SearchCost
		}
		if p.Method == MethodAugmented && p.Threshold == 1.3 {
			d13 = p.SearchCost
		}
	}
	if d13 < d11-1e-9 {
		t.Errorf("delta 1.3 cost %v below delta 1.1 cost %v; thresholds inverted", d13, d11)
	}
}

func TestCompare(t *testing.T) {
	r := testRunner(t)
	regions := map[string]Region{}
	for _, w := range r.Workloads() {
		regions[w.ID()] = RegionII
	}
	rep, err := r.Compare(
		MethodConfig{Method: MethodNaive, EIStop: 0.1},
		MethodConfig{Method: MethodAugmented, Delta: 1.1},
		core.MinimizeCost, 3, regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(r.Workloads()) {
		t.Fatalf("%d points", len(rep.Points))
	}
	total := 0
	for _, count := range rep.Counts {
		total += count
	}
	if total != len(rep.Points) {
		t.Errorf("counts sum to %d, want %d", total, len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Class < Win || p.Class > Loss {
			t.Errorf("%s: class %v", p.WorkloadID, p.Class)
		}
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		cost, val float64
		want      CompareClass
	}{
		{10, 5, Win},
		{10, 0, Win},
		{0, 5, Win},
		{0, 0, Same},
		{0.4, -0.4, Same},
		{10, -5, Draw},
		{-10, 5, Loss},
		{-10, -5, Loss},
	}
	for _, tt := range tests {
		if got := classify(tt.cost, tt.val); got != tt.want {
			t.Errorf("classify(%v, %v) = %v, want %v", tt.cost, tt.val, got, tt.want)
		}
	}
}

func TestCompareClassStrings(t *testing.T) {
	for _, c := range []CompareClass{Win, Same, Draw, Loss} {
		if strings.HasPrefix(c.String(), "CompareClass(") {
			t.Errorf("class %d unnamed", c)
		}
	}
}

func TestRegionStrings(t *testing.T) {
	if RegionI.String() != "Region I" || RegionIII.String() != "Region III" {
		t.Error("region names wrong")
	}
}

func TestForEachPropagatesError(t *testing.T) {
	r := testRunner(t)
	err := r.forEach(10, func(i int) error {
		if i == 3 {
			return errNoRuns
		}
		return nil
	})
	if err == nil {
		t.Error("forEach should propagate the first error")
	}
}

func TestForEachRunsAll(t *testing.T) {
	r := testRunner(t)
	hits := make([]bool, 25)
	err := r.forEach(25, func(i int) error {
		hits[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h {
			t.Errorf("index %d not visited", i)
		}
	}
}

func TestForEachZero(t *testing.T) {
	r := testRunner(t)
	if err := r.forEach(0, func(int) error { return errNoRuns }); err != nil {
		t.Errorf("forEach(0) = %v", err)
	}
}
