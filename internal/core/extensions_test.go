package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/acquisition"
	"repro/internal/lowlevel"
)

func TestNaiveBOAcquisitionVariants(t *testing.T) {
	for _, acq := range []acquisition.Kind{
		acquisition.ExpectedImprovement,
		acquisition.ProbabilityOfImprovement,
		acquisition.UpperConfidenceBound,
		acquisition.EntropySearch,
	} {
		t.Run(acq.String(), func(t *testing.T) {
			naive, err := New(Config{
				Method:         MethodNaiveBO,
				Objective:      MinimizeTime,
				Acquisition:    acq,
				EIStopFraction: -1,
				Seed:           4,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := naive.Search(newFakeTarget(exhaustiveValues()))
			if err != nil {
				t.Fatal(err)
			}
			if res.BestValue != 1 {
				t.Errorf("best = %v, want 1", res.BestValue)
			}
		})
	}
}

func TestNaiveBORejectsPredictionDeltaAcquisition(t *testing.T) {
	_, err := New(Config{
		Method:      MethodNaiveBO,
		Objective:   MinimizeTime,
		Acquisition: acquisition.PredictionDelta,
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v, want ErrBadConfig", err)
	}
}

func TestNaiveBONonEIAcquisitionNeverStopsEarly(t *testing.T) {
	naive, err := New(Config{
		Method:         MethodNaiveBO,
		Objective:      MinimizeTime,
		Acquisition:    acquisition.UpperConfidenceBound,
		EIStopFraction: 0.10, // would stop EI quickly on a flat landscape
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := newFakeTarget([]float64{5, 5, 5, 5, 5, 5})
	res, err := naive.Search(flat)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedEarly {
		t.Error("UCB acquisition must not trigger the EI stopping rule")
	}
	if res.NumMeasurements() != 6 {
		t.Errorf("measured %d of 6", res.NumMeasurements())
	}
}

func TestNaiveBOAutoKernel(t *testing.T) {
	naive, err := New(Config{
		Method:         MethodNaiveBO,
		Objective:      MinimizeTime,
		AutoKernel:     true,
		EIStopFraction: -1,
		Seed:           2,
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

func TestAugmentedBOAblationRuns(t *testing.T) {
	aug, err := New(Config{
		Method:          MethodAugmentedBO,
		Objective:       MinimizeTime,
		DeltaThreshold:  -1,
		DisableLowLevel: true,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := aug.Search(newFakeTarget(exhaustiveValues()))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue != 1 {
		t.Errorf("best = %v", res.BestValue)
	}
}

// TestAblationLosesLowLevelSignal complements
// TestAugmentedBOExploitsLowLevelSignal: with the metrics zeroed, the
// surrogate can no longer see the cliff flag, so its post-design picks
// must be right less often than the full model's.
func TestAblationLosesLowLevelSignal(t *testing.T) {
	goodPicks := func(disable bool) int {
		good := 0
		for seed := int64(0); seed < 20; seed++ {
			target := steppedTarget()
			aug, err := New(Config{
				Method:          MethodAugmentedBO,
				Objective:       MinimizeTime,
				DeltaThreshold:  -1,
				DisableLowLevel: disable,
				Seed:            seed,
				Design:          DesignConfig{Kind: DesignFixed, Fixed: []int{0, 5, 2}, NumInitial: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := aug.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			if res.Observations[3].Value < 10 {
				good++
			}
		}
		return good
	}
	full := goodPicks(false)
	ablated := goodPicks(true)
	if ablated > full {
		t.Errorf("ablated model picked good VMs more often (%d) than the full model (%d)", ablated, full)
	}
}

func TestWarmStartValidation(t *testing.T) {
	valid := PriorObservation{
		Features: []float64{1, 2},
		Value:    3,
	}
	tests := []struct {
		name  string
		prior PriorObservation
	}{
		{"no features", PriorObservation{Value: 1}},
		{"zero value", PriorObservation{Features: []float64{1}, Value: 0}},
		{"negative value", PriorObservation{Features: []float64{1}, Value: -2}},
		{"bad metrics", func() PriorObservation {
			p := valid
			p.Metrics[lowlevel.CPUUser] = -4
			return p
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(Config{
				Method:    MethodAugmentedBO,
				Objective: MinimizeTime,
				WarmStart: []PriorObservation{tt.prior},
			})
			if !errors.Is(err, ErrBadConfig) && err == nil {
				t.Errorf("want error, got %v", err)
			}
		})
	}
	if _, err := New(Config{
		Method:    MethodAugmentedBO,
		Objective: MinimizeTime,
		WarmStart: []PriorObservation{valid},
	}); err != nil {
		t.Errorf("valid warm start rejected: %v", err)
	}
}

// TestWarmStartSteersEarlyPicks: history from an identical workload lets
// the surrogate route around the bad cluster after seeing only the
// two-point minimum of current observations.
func TestWarmStartSteersEarlyPicks(t *testing.T) {
	// Build full history from a run of the same stepped landscape.
	history := steppedTarget()
	var priors []PriorObservation
	for i := 0; i < history.NumCandidates(); i++ {
		out, err := history.Measure(i)
		if err != nil {
			t.Fatal(err)
		}
		priors = append(priors, PriorObservation{
			Features: history.Features(i),
			Metrics:  out.Metrics,
			Value:    out.TimeSec,
		})
	}
	goodPicks := func(warm []PriorObservation) int {
		good := 0
		for seed := int64(0); seed < 20; seed++ {
			target := steppedTarget()
			aug, err := New(Config{
				Method:         MethodAugmentedBO,
				Objective:      MinimizeTime,
				DeltaThreshold: -1,
				WarmStart:      warm,
				Seed:           seed,
				// Seed only with one good and one bad VM: without history
				// the pairwise model has just 2 rows to learn from.
				Design: DesignConfig{Kind: DesignFixed, Fixed: []int{0, 5}, NumInitial: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := aug.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			if res.Observations[2].Value < 10 {
				good++
			}
		}
		return good
	}
	warm := goodPicks(priors)
	cold := goodPicks(nil)
	if warm < cold {
		t.Errorf("warm start (%d/20 good picks) should not lose to cold start (%d/20)", warm, cold)
	}
	if warm < 15 {
		t.Errorf("warm start picked good VMs only %d/20 times despite full history", warm)
	}
}

func TestExplainSurrogate(t *testing.T) {
	target := steppedTarget()
	cfg := Config{
		Method:         MethodAugmentedBO,
		Objective:      MinimizeTime,
		DeltaThreshold: -1,
		Seed:           6,
	}
	aug, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aug.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := ExplainSurrogate(cfg, steppedTarget(), res)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 2 + int(lowlevel.NumMetrics) + 2 // 2 features each side
	if len(imps) != wantLen {
		t.Fatalf("%d importances, want %d", len(imps), wantLen)
	}
	total := 0.0
	hasMetricName := false
	for _, imp := range imps {
		if imp.Fraction < 0 || imp.Fraction > 1 {
			t.Errorf("%s: fraction %v", imp.Name, imp.Fraction)
		}
		total += imp.Fraction
		if strings.Contains(imp.Name, "%commit") {
			hasMetricName = true
		}
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("importances sum to %v", total)
	}
	if !hasMetricName {
		t.Error("metric columns missing from explanation")
	}
}

func TestExplainSurrogateBadResult(t *testing.T) {
	cfg := Config{Method: MethodAugmentedBO, Objective: MinimizeTime}
	for name, obs := range map[string][]Observation{
		"index outside target": {{Index: 99, Value: 1}},
		// A duplicate would add self-pairs to the surrogate's training set.
		"duplicate index": {
			{Index: 1, Value: 2.2, Outcome: Outcome{TimeSec: 2.2}},
			{Index: 2, Value: 1.8, Outcome: Outcome{TimeSec: 1.8}},
			{Index: 1, Value: 2.2, Outcome: Outcome{TimeSec: 2.2}},
		},
	} {
		res := &Result{Objective: MinimizeTime, Observations: obs}
		if _, err := ExplainSurrogate(cfg, steppedTarget(), res); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error = %v, want ErrBadConfig", name, err)
		}
	}
	// Naive BO has no pairwise surrogate to explain.
	naive := Config{Method: MethodNaiveBO, Objective: MinimizeTime}
	res := &Result{Objective: MinimizeTime, Observations: []Observation{
		{Index: 1, Value: 2.2, Outcome: Outcome{TimeSec: 2.2}},
		{Index: 2, Value: 1.8, Outcome: Outcome{TimeSec: 1.8}},
	}}
	if _, err := ExplainSurrogate(naive, steppedTarget(), res); !errors.Is(err, ErrBadConfig) {
		t.Errorf("naive config: error = %v, want ErrBadConfig", err)
	}
}
