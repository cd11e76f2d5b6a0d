package arrow

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func TestWorkloadIDsCount(t *testing.T) {
	ids := WorkloadIDs()
	if len(ids) != 107 {
		t.Fatalf("%d workloads, want the paper's 107", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate %q", id)
		}
		seen[id] = true
	}
}

func TestCatalogVMs(t *testing.T) {
	vms := CatalogVMs()
	if len(vms) != 18 {
		t.Fatalf("%d VMs, want 18", len(vms))
	}
	for _, vm := range vms {
		if vm.Name == "" || vm.VCPUs <= 0 || vm.MemGiB <= 0 || vm.PricePerHr <= 0 {
			t.Errorf("bad VM info: %+v", vm)
		}
		if len(vm.Features) != 4 {
			t.Errorf("%s: %d features", vm.Name, len(vm.Features))
		}
	}
}

func TestMetricNames(t *testing.T) {
	names := MetricNames()
	if len(names) != NumMetrics {
		t.Fatalf("%d metric names, want %d", len(names), NumMetrics)
	}
}

func TestNewSimulatedTarget(t *testing.T) {
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	if target.NumCandidates() != 18 {
		t.Errorf("%d candidates", target.NumCandidates())
	}
	out, err := target.Measure(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeSec <= 0 || out.CostUSD <= 0 || len(out.Metrics) != NumMetrics {
		t.Errorf("bad outcome: %+v", out)
	}
}

func TestNewSimulatedTargetUnknown(t *testing.T) {
	if _, err := NewSimulatedTarget("nope/spark9/medium", 1); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestNewSimulatedTargetExcludedWorkload(t *testing.T) {
	// classification/spark1.5/large is a valid candidate but OOM-excluded
	// from the study set.
	if _, err := NewSimulatedTarget("classification/spark1.5/large", 1); err == nil {
		t.Error("excluded workload should be rejected")
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  Option
	}{
		{"objective", WithObjective(Objective(0))},
		{"kernel", WithKernel(Kernel(99))},
		{"ei>1", WithEIStopFraction(1.5)},
		{"switch<2", WithSwitchAfter(1)},
		{"numInitial<1", WithNumInitial(0)},
		{"empty design", WithInitialCandidates()},
		{"max<1", WithMaxMeasurements(0)},
		{"method", WithMethod(Method(0))},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.opt); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestDefaults(t *testing.T) {
	opt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Method() != MethodAugmentedBO {
		t.Errorf("default method = %v", opt.Method())
	}
	if opt.Objective() != MinimizeCost {
		t.Errorf("default objective = %v", opt.Objective())
	}
}

func TestSearchAllMethodsOnSimulatedTarget(t *testing.T) {
	for _, method := range []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch} {
		t.Run(method.String(), func(t *testing.T) {
			target, err := NewSimulatedTarget("kmeans/spark2.1/medium", 2)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := New(
				WithMethod(method),
				WithObjective(MinimizeCost),
				WithSeed(7),
				WithEIStopFraction(-1),
				WithDeltaThreshold(-1),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumMeasurements() != 18 {
				t.Errorf("measured %d with stopping disabled", res.NumMeasurements())
			}
			if res.BestName == "" || res.BestValue <= 0 {
				t.Errorf("bad result: %+v", res)
			}
			// BestValue must equal the smallest observed value.
			minVal := res.Observations[0].Value
			for _, obs := range res.Observations {
				if obs.Value < minVal {
					minVal = obs.Value
				}
			}
			if res.BestValue != minVal {
				t.Errorf("BestValue %v != min observed %v", res.BestValue, minVal)
			}
		})
	}
}

func TestSearchStopsEarlyByDefault(t *testing.T) {
	target, err := NewSimulatedTarget("pearson/spark2.1/medium", 3)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Log("note: search exhausted the catalog (acceptable but unusual)")
	}
	if res.StopReason == "" {
		t.Error("empty stop reason")
	}
}

func TestSearchReproducibleWithSeed(t *testing.T) {
	run := func() []string {
		target, err := NewSimulatedTarget("svd/spark2.1/medium", 5)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(WithMethod(MethodNaiveBO), WithSeed(11), WithEIStopFraction(-1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Search(target)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, obs := range res.Observations {
			names = append(names, obs.Name)
		}
		return names
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestWithInitialCandidates(t *testing.T) {
	target, err := NewSimulatedTarget("scan/hadoop2.7/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(
		WithMethod(MethodNaiveBO),
		WithInitialCandidates(17, 0, 9),
		WithEIStopFraction(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{17, 0, 9} {
		if res.Observations[i].Index != want {
			t.Errorf("step %d measured %d, want %d", i, res.Observations[i].Index, want)
		}
	}
}

func TestWithMaxMeasurements(t *testing.T) {
	target, err := NewSimulatedTarget("scan/hadoop2.7/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(WithMethod(MethodAugmentedBO), WithMaxMeasurements(5), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumMeasurements() != 5 {
		t.Errorf("measured %d, want 5", res.NumMeasurements())
	}
}

// customTarget checks the public Target interface with user-provided
// metrics (and without).
type customTarget struct {
	withMetrics bool
	badMetrics  bool
}

func (c *customTarget) NumCandidates() int { return 6 }
func (c *customTarget) Features(i int) []float64 {
	return []float64{float64(i), float64(i * i)}
}
func (c *customTarget) Name(i int) string { return fmt.Sprintf("cfg-%d", i) }
func (c *customTarget) Measure(i int) (Outcome, error) {
	out := Outcome{TimeSec: float64(10 - i), CostUSD: float64(i + 1)}
	if c.withMetrics {
		m := make([]float64, NumMetrics)
		for j := range m {
			m[j] = float64(j + 1)
		}
		out.Metrics = m
	}
	if c.badMetrics {
		out.Metrics = []float64{-1, 2}
	}
	return out, nil
}

func TestCustomTargetWithoutMetricsNaive(t *testing.T) {
	opt, err := New(WithMethod(MethodNaiveBO), WithObjective(MinimizeTime), WithEIStopFraction(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(&customTarget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestName != "cfg-5" {
		t.Errorf("best = %s, want cfg-5 (smallest time)", res.BestName)
	}
}

func TestCustomTargetWithMetricsAugmented(t *testing.T) {
	opt, err := New(WithMethod(MethodAugmentedBO), WithObjective(MinimizeCost), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(&customTarget{withMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestName != "cfg-0" {
		t.Errorf("best = %s, want cfg-0 (cheapest)", res.BestName)
	}
}

func TestCustomTargetBadMetricsRejected(t *testing.T) {
	opt, err := New(WithMethod(MethodAugmentedBO), WithObjective(MinimizeCost))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Search(&customTarget{badMetrics: true}); err == nil {
		t.Error("malformed metrics should fail")
	}
}

func TestObjectiveAndMethodStrings(t *testing.T) {
	if MinimizeTime.String() != "time" || MinimizeCost.String() != "cost" {
		t.Error("objective names wrong")
	}
	if MethodNaiveBO.String() != "naive-bo" || MethodAugmentedBO.String() != "augmented-bo" {
		t.Error("method names wrong")
	}
	if KernelMatern52.String() != "MATERN 5/2" {
		t.Errorf("kernel name %q", KernelMatern52.String())
	}
}

// TestParseNames pins the one name table per enum that serve and the
// CLI share: every method and objective round-trips through its String
// name, and every alias parses, in any case.
func TestParseNames(t *testing.T) {
	for _, m := range []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, o := range []Objective{MinimizeTime, MinimizeCost, MinimizeTimeCostProduct} {
		if got, err := ParseObjective(o.String()); err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	for name, want := range map[string]Method{
		"naive": MethodNaiveBO, "augmented": MethodAugmentedBO, "arrow": MethodAugmentedBO,
		"hybrid": MethodHybridBO, "random": MethodRandomSearch, "Augmented-BO": MethodAugmentedBO,
	} {
		if got, err := ParseMethod(name); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]Objective{
		"product": MinimizeTimeCostProduct, "timecost": MinimizeTimeCostProduct, "COST": MinimizeCost,
	} {
		if got, err := ParseObjective(name); err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]Kernel{
		"rbf": KernelRBF, "matern12": KernelMatern12, "matern32": KernelMatern32, "Matern52": KernelMatern52,
	} {
		if got, err := ParseKernel(name); err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	if _, err := ParseMethod("simulated-annealing"); err == nil {
		t.Error("unknown method parsed")
	}
	if _, err := ParseObjective("speed"); err == nil {
		t.Error("unknown objective parsed")
	}
	if _, err := ParseKernel("linear"); err == nil {
		t.Error("unknown kernel parsed")
	}
}

func TestErrorsAreErrors(t *testing.T) {
	_, err := NewSimulatedTarget("classification/spark1.5/large", 1)
	if err == nil {
		t.Fatal("want error")
	}
	var dummy *Optimizer
	_ = dummy
	if errors.Is(err, nil) {
		t.Error("nonsense")
	}
}

func TestProductObjective(t *testing.T) {
	target, err := NewSimulatedTarget("bayes/spark2.1/medium", 4)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(
		WithMethod(MethodAugmentedBO),
		WithObjective(MinimizeTimeCostProduct),
		WithDeltaThreshold(1.05),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	// The best value must equal time x cost of the best observation.
	for _, obs := range res.Observations {
		if obs.Index == res.BestIndex {
			if want := obs.Outcome.TimeSec * obs.Outcome.CostUSD; res.BestValue != want {
				t.Errorf("product = %v, want %v", res.BestValue, want)
			}
		}
	}
}

func TestWorkloadIDsSorted(t *testing.T) {
	ids := WorkloadIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted at %d: %q >= %q", i, ids[i-1], ids[i])
		}
	}
}

func TestCatalogVMsReturnsCopies(t *testing.T) {
	a := CatalogVMs()
	a[0].Name = "mutated"
	a[0].Features[0] = -99
	b := CatalogVMs()
	if b[0].Name == "mutated" || b[0].Features[0] == -99 {
		t.Error("CatalogVMs aliases shared state")
	}
}

func TestSimulatedTargetFeaturesStable(t *testing.T) {
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := target.Features(0)
	b := target.Features(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("features changed between calls")
		}
	}
}

func TestSimulatedTargetNoiseVariesAcrossTrials(t *testing.T) {
	t1, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewSimulatedTarget("als/spark2.1/medium", 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := t1.Measure(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := t2.Measure(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec == b.TimeSec {
		t.Error("different trials produced identical measurements")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	target, err := NewSimulatedTarget("pearson/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(WithMaxMeasurements(4), WithDeltaThreshold(-1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.BestName != res.BestName || back.NumMeasurements() != res.NumMeasurements() {
		t.Errorf("round trip diverged: %+v vs %+v", back, res)
	}
}
