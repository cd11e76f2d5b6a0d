package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/lowlevel"
)

// fakeTarget is a deterministic in-memory target for unit tests. Values
// are objective values directly (time == value, cost == value, so every
// objective agrees).
type fakeTarget struct {
	features [][]float64
	values   []float64
	metrics  []lowlevel.Vector
	measured []int // measurement log
	failAt   int   // candidate index whose measurement errors, -1 for none
}

var _ Target = (*fakeTarget)(nil)

func newFakeTarget(values []float64) *fakeTarget {
	t := &fakeTarget{values: values, failAt: -1}
	for i, v := range values {
		t.features = append(t.features, []float64{float64(i), float64(i % 3)})
		var m lowlevel.Vector
		m[lowlevel.CPUUser] = 50
		m[lowlevel.IOWait] = 10
		m[lowlevel.TaskCount] = 8
		m[lowlevel.MemCommit] = 40 + v // correlate metrics with value
		m[lowlevel.DiskUtil] = 20
		m[lowlevel.DiskAwait] = 6
		t.metrics = append(t.metrics, m)
	}
	return t
}

func (f *fakeTarget) NumCandidates() int       { return len(f.values) }
func (f *fakeTarget) Features(i int) []float64 { return f.features[i] }
func (f *fakeTarget) Name(i int) string        { return fmt.Sprintf("vm-%d", i) }

func (f *fakeTarget) Measure(i int) (Outcome, error) {
	if i == f.failAt {
		return Outcome{}, errors.New("injected measurement failure")
	}
	f.measured = append(f.measured, i)
	return Outcome{TimeSec: f.values[i], CostUSD: f.values[i], Metrics: f.metrics[i]}, nil
}

func TestObjectiveString(t *testing.T) {
	tests := []struct {
		o    Objective
		want string
	}{
		{MinimizeTime, "time"},
		{MinimizeCost, "cost"},
		{MinimizeTimeCostProduct, "time-cost-product"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestOutcomeValue(t *testing.T) {
	out := Outcome{TimeSec: 10, CostUSD: 3}
	if v, _ := out.Value(MinimizeTime); v != 10 {
		t.Errorf("time value = %v", v)
	}
	if v, _ := out.Value(MinimizeCost); v != 3 {
		t.Errorf("cost value = %v", v)
	}
	if v, _ := out.Value(MinimizeTimeCostProduct); v != 30 {
		t.Errorf("product value = %v", v)
	}
	if _, err := out.Value(Objective(0)); err == nil {
		t.Error("invalid objective should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Observations: []Observation{
		{Index: 4, Value: 5},
		{Index: 2, Value: 3},
		{Index: 7, Value: 9},
	}}
	if r.NumMeasurements() != 3 {
		t.Errorf("NumMeasurements = %d", r.NumMeasurements())
	}
	if s := r.MeasuredAtStep(2); s != 2 {
		t.Errorf("MeasuredAtStep(2) = %d", s)
	}
	if s := r.MeasuredAtStep(11); s != 0 {
		t.Errorf("MeasuredAtStep(missing) = %d, want 0", s)
	}
	if b, err := r.BestAfter(1); err != nil || b != 5 {
		t.Errorf("BestAfter(1) = %v, %v", b, err)
	}
	if b, err := r.BestAfter(3); err != nil || b != 3 {
		t.Errorf("BestAfter(3) = %v, %v", b, err)
	}
	if _, err := r.BestAfter(0); err == nil {
		t.Error("BestAfter(0) should fail")
	}
	if _, err := r.BestAfter(4); err == nil {
		t.Error("BestAfter beyond length should fail")
	}
}

// exhaustiveValues is a small catalog where index 5 is optimal.
func exhaustiveValues() []float64 {
	return []float64{9, 7, 8, 6, 10, 1, 5, 4, 12, 3}
}

func allOptimizers(t *testing.T, objective Objective, seed int64, disableStop bool) map[string]Optimizer {
	t.Helper()
	eiStop, delta := 0.0, 0.0
	if disableStop {
		eiStop, delta = -1, -1
	}
	naive, err := New(Config{Method: MethodNaiveBO, Objective: objective, Seed: seed, EIStopFraction: eiStop})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := New(Config{Method: MethodAugmentedBO, Objective: objective, Seed: seed, DeltaThreshold: delta})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := New(Config{Method: MethodHybridBO, Objective: objective, Seed: seed, DeltaThreshold: delta})
	if err != nil {
		t.Fatal(err)
	}
	random, err := New(Config{Method: MethodRandomSearch, Objective: objective, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Optimizer{
		"naive-bo": naive, "augmented-bo": aug, "hybrid-bo": hybrid, "random-search": random,
	}
}

func TestAllOptimizersExhaustSearchSpaceAndFindOptimum(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 1, true) {
		t.Run(name, func(t *testing.T) {
			target := newFakeTarget(exhaustiveValues())
			res, err := opt.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumMeasurements() != target.NumCandidates() {
				t.Errorf("measured %d of %d with stopping disabled", res.NumMeasurements(), target.NumCandidates())
			}
			if res.BestIndex != 5 || res.BestValue != 1 {
				t.Errorf("best = (%d, %v), want (5, 1)", res.BestIndex, res.BestValue)
			}
			if res.Method != opt.Name() {
				t.Errorf("method = %q, want %q", res.Method, opt.Name())
			}
			if res.StoppedEarly {
				t.Error("stopping disabled but StoppedEarly set")
			}
		})
	}
}

func TestNoCandidateMeasuredTwice(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeCost, 3, true) {
		t.Run(name, func(t *testing.T) {
			target := newFakeTarget(exhaustiveValues())
			if _, err := opt.Search(target); err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			for _, idx := range target.measured {
				if seen[idx] {
					t.Fatalf("candidate %d measured twice: %v", idx, target.measured)
				}
				seen[idx] = true
			}
		})
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	for name := range allOptimizers(t, MinimizeTime, 0, true) {
		t.Run(name, func(t *testing.T) {
			run := func() []int {
				opt := allOptimizers(t, MinimizeTime, 42, true)[name]
				target := newFakeTarget(exhaustiveValues())
				if _, err := opt.Search(target); err != nil {
					t.Fatal(err)
				}
				return target.measured
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("different lengths %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("order differs at %d: %v vs %v", i, a, b)
				}
			}
		})
	}
}

func TestBestSoFarMonotone(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 5, true) {
		t.Run(name, func(t *testing.T) {
			res, err := opt.Search(newFakeTarget(exhaustiveValues()))
			if err != nil {
				t.Fatal(err)
			}
			prev := math.Inf(1)
			for i, s := range res.Steps {
				if s.BestSoFar > prev {
					t.Fatalf("best-so-far increased at step %d", i)
				}
				prev = s.BestSoFar
			}
		})
	}
}

func TestMeasurementFailureQuarantinesCandidate(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 1, true) {
		t.Run(name, func(t *testing.T) {
			target := newFakeTarget(exhaustiveValues())
			target.failAt = 5 // the optimum: every search reaches it eventually
			res, err := opt.Search(target)
			if err != nil {
				t.Fatalf("failure should quarantine, not abort: %v", err)
			}
			if res.Partial {
				t.Error("quarantine alone should not make the result partial")
			}
			if len(res.Failures) != 1 || res.Failures[0].Index != 5 {
				t.Fatalf("failures = %+v, want exactly candidate 5", res.Failures)
			}
			if res.BestIndex == 5 {
				t.Error("quarantined candidate reported as best")
			}
			for _, obs := range res.Observations {
				if obs.Index == 5 {
					t.Error("quarantined candidate appears among observations")
				}
			}
			// With the optimum quarantined, the best must be the runner-up.
			values := exhaustiveValues()
			wantBest, wantVal := -1, math.Inf(1)
			for i, v := range values {
				if i != 5 && v < wantVal {
					wantBest, wantVal = i, v
				}
			}
			if res.NumMeasurements() == len(values)-1 && res.BestIndex != wantBest {
				t.Errorf("best = %d (%.3g), want runner-up %d (%.3g)",
					res.BestIndex, res.BestValue, wantBest, wantVal)
			}
		})
	}
}

func TestEmptyTarget(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 1, true) {
		t.Run(name, func(t *testing.T) {
			if _, err := opt.Search(newFakeTarget(nil)); !errors.Is(err, ErrTargetEmpty) {
				t.Errorf("error = %v, want ErrTargetEmpty", err)
			}
		})
	}
}

func TestInvalidObjectiveRejectedAtSearch(t *testing.T) {
	naive, err := New(Config{Method: MethodNaiveBO, Objective: Objective(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Search(newFakeTarget(exhaustiveValues())); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v, want ErrBadConfig", err)
	}
}

func TestNegativeMeasurementRejected(t *testing.T) {
	target := newFakeTarget([]float64{1, 2, -3, 4, 5})
	opt, err := New(Config{Method: MethodRandomSearch, Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Index != 2 {
		t.Fatalf("failures = %+v, want the negative-valued candidate quarantined", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, ErrInvalidOutcome) {
		t.Errorf("failure error = %v, want ErrInvalidOutcome", res.Failures[0].Err)
	}
	if res.NumMeasurements() != 4 {
		t.Errorf("measured %d candidates, want the 4 valid ones", res.NumMeasurements())
	}
}

func TestMaxMeasurementsRespected(t *testing.T) {
	naive, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeTime, MaxMeasurements: 5, EIStopFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := New(Config{Method: MethodAugmentedBO, Objective: MinimizeTime, MaxMeasurements: 5, DeltaThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	random, err := New(Config{Method: MethodRandomSearch, Objective: MinimizeTime, MaxMeasurements: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Optimizer{"naive": naive, "augmented": aug, "random": random} {
		t.Run(name, func(t *testing.T) {
			res, err := opt.Search(newFakeTarget(exhaustiveValues()))
			if err != nil {
				t.Fatal(err)
			}
			if res.NumMeasurements() != 5 {
				t.Errorf("measured %d, want 5", res.NumMeasurements())
			}
		})
	}
}

func TestInitialDesignRespected(t *testing.T) {
	cfg := DesignConfig{Kind: DesignFixed, Fixed: []int{7, 0, 3}, NumInitial: 3}
	naive, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeTime, Design: cfg, EIStopFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	res, err := naive.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{7, 0, 3} {
		if res.Observations[i].Index != want {
			t.Errorf("design step %d measured %d, want %d", i, res.Observations[i].Index, want)
		}
		if !res.Steps[i].FromDesign {
			t.Errorf("step %d not marked FromDesign", i)
		}
	}
	if res.Steps[3].FromDesign {
		t.Error("post-design step marked FromDesign")
	}
}

func TestDesignKindString(t *testing.T) {
	for _, d := range []DesignKind{DesignQuasiRandom, DesignUniform, DesignFixed} {
		if s := d.String(); s == "" || s[0] == 'D' && s[1] == 'e' && s[2] == 's' && s[3] == 'i' && s[4] == 'g' {
			t.Errorf("DesignKind %d has placeholder name %q", d, s)
		}
	}
}

func TestRaggedFeaturesRejected(t *testing.T) {
	target := newFakeTarget(exhaustiveValues())
	target.features[3] = []float64{1} // break dimensionality
	naive, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeTime})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Search(target); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v, want ErrBadConfig", err)
	}
}

func TestSobolDesignKind(t *testing.T) {
	naive, err := New(Config{
		Method:         MethodNaiveBO,
		Objective:      MinimizeTime,
		Design:         DesignConfig{Kind: DesignSobol, NumInitial: 4},
		EIStopFraction: -1,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	res, err := naive.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		if !res.Steps[i].FromDesign {
			t.Errorf("step %d not from design", i)
		}
		if seen[res.Observations[i].Index] {
			t.Errorf("design repeated candidate %d", res.Observations[i].Index)
		}
		seen[res.Observations[i].Index] = true
	}
	if res.BestValue != 1 {
		t.Errorf("best = %v", res.BestValue)
	}
}

func TestSobolDesignVariesWithSeed(t *testing.T) {
	design := func(seed int64) []int {
		naive, err := New(Config{
			Method:         MethodNaiveBO,
			Objective:      MinimizeTime,
			Design:         DesignConfig{Kind: DesignSobol, NumInitial: 3},
			EIStopFraction: -1,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		target := newFakeTarget(exhaustiveValues())
		if _, err := naive.Search(target); err != nil {
			t.Fatal(err)
		}
		return target.measured[:3]
	}
	varies := false
	base := design(0)
	for seed := int64(1); seed < 8 && !varies; seed++ {
		d := design(seed)
		for i := range base {
			if d[i] != base[i] {
				varies = true
			}
		}
	}
	if !varies {
		t.Error("sobol designs identical across 8 seeds")
	}
}

func TestInvalidDesignKind(t *testing.T) {
	naive, err := New(Config{
		Method:    MethodNaiveBO,
		Objective: MinimizeTime,
		Design:    DesignConfig{Kind: DesignKind(99)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Search(newFakeTarget(exhaustiveValues())); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v, want ErrBadConfig", err)
	}
}

func TestUniformDesignKind(t *testing.T) {
	naive, err := New(Config{
		Method:         MethodNaiveBO,
		Objective:      MinimizeTime,
		Design:         DesignConfig{Kind: DesignUniform, NumInitial: 4},
		EIStopFraction: -1,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := naive.Search(newFakeTarget(exhaustiveValues()))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue != 1 {
		t.Errorf("best = %v", res.BestValue)
	}
}
