package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/acquisition"
	"repro/internal/lowlevel"
)

// sloTarget builds a target where cost and time pull in opposite
// directions: cheap candidates are slow, fast candidates are expensive.
// With an SLO of maxTime, the best feasible choice is the cheapest
// candidate whose time fits.
type sloTarget struct {
	times []float64
	costs []float64
	fake  *fakeTarget
}

func newSLOTarget() *sloTarget {
	// Index:  0    1    2    3    4    5    6    7
	times := []float64{100, 80, 60, 45, 30, 20, 12, 8}
	costs := []float64{1, 1.5, 2, 2.8, 4, 6, 9, 14}
	t := &sloTarget{times: times, costs: costs, fake: newFakeTarget(costs)}
	return t
}

func (s *sloTarget) NumCandidates() int       { return len(s.times) }
func (s *sloTarget) Features(i int) []float64 { return s.fake.features[i] }
func (s *sloTarget) Name(i int) string        { return s.fake.Name(i) }

func (s *sloTarget) Measure(i int) (Outcome, error) {
	var m lowlevel.Vector
	m[lowlevel.CPUUser] = 60
	m[lowlevel.IOWait] = 10
	m[lowlevel.TaskCount] = 6
	m[lowlevel.MemCommit] = 50
	m[lowlevel.DiskUtil] = 30
	m[lowlevel.DiskAwait] = 8
	return Outcome{TimeSec: s.times[i], CostUSD: s.costs[i], Metrics: m}, nil
}

func TestSLOValidation(t *testing.T) {
	if _, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeCost, MaxTimeSLO: -1}); !errors.Is(err, ErrBadConfig) {
		t.Error("negative SLO should fail")
	}
	if _, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeCost, MaxTimeSLO: math.NaN()}); !errors.Is(err, ErrBadConfig) {
		t.Error("NaN SLO should fail")
	}
	if _, err := New(Config{
		Method:      MethodNaiveBO,
		Objective:   MinimizeCost,
		MaxTimeSLO:  50,
		Acquisition: acquisition.UpperConfidenceBound,
	}); !errors.Is(err, ErrBadConfig) {
		t.Error("SLO with non-EI acquisition should fail")
	}
	if _, err := New(Config{Method: MethodAugmentedBO, Objective: MinimizeCost, MaxTimeSLO: -2}); !errors.Is(err, ErrBadConfig) {
		t.Error("negative SLO should fail")
	}
}

func TestSLOConstrainedSearchFindsCheapestFeasible(t *testing.T) {
	// With SLO 50s the feasible set is {3..7}; the cheapest feasible is
	// index 3 (cost 2.8, time 45).
	for name, mk := range map[string]func(seed int64) (Optimizer, error){
		"naive": func(seed int64) (Optimizer, error) {
			return New(Config{
				Method:    MethodNaiveBO,
				Objective: MinimizeCost, MaxTimeSLO: 50, EIStopFraction: -1, Seed: seed,
			})
		},
		"augmented": func(seed int64) (Optimizer, error) {
			return New(Config{
				Method:    MethodAugmentedBO,
				Objective: MinimizeCost, MaxTimeSLO: 50, DeltaThreshold: -1, Seed: seed,
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				opt, err := mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := opt.Search(newSLOTarget())
				if err != nil {
					t.Fatal(err)
				}
				if !res.SLOSatisfied {
					t.Fatalf("seed %d: SLO not satisfied despite feasible candidates", seed)
				}
				if res.BestIndex != 3 {
					t.Errorf("seed %d: best = %d (cost %v), want 3 (cheapest feasible)",
						seed, res.BestIndex, res.BestValue)
				}
			}
		})
	}
}

func TestSLOUnsatisfiableFallsBackToFastest(t *testing.T) {
	// SLO 5s: nothing qualifies; the result must say so and point at the
	// fastest candidate (index 7, 8s).
	naive, err := New(Config{
		Method:    MethodNaiveBO,
		Objective: MinimizeCost, MaxTimeSLO: 5, EIStopFraction: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := naive.Search(newSLOTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOSatisfied {
		t.Error("SLO reported satisfied but nothing meets 5s")
	}
	if res.BestIndex != 7 {
		t.Errorf("fallback best = %d, want the fastest candidate 7", res.BestIndex)
	}
	if res.NumMeasurements() != 8 {
		t.Errorf("measured %d of 8 — unsatisfiable SLO must not stop early", res.NumMeasurements())
	}
}

func TestSLOStoppingStillWorks(t *testing.T) {
	aug, err := New(Config{
		Method:    MethodAugmentedBO,
		Objective: MinimizeCost, MaxTimeSLO: 50, DeltaThreshold: 1.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := aug.Search(newSLOTarget())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SLOSatisfied {
		t.Fatal("SLO should be satisfiable")
	}
	// The found VM must meet the SLO.
	for _, obs := range res.Observations {
		if obs.Index == res.BestIndex && obs.Outcome.TimeSec > 50 {
			t.Errorf("chosen VM violates the SLO: %v s", obs.Outcome.TimeSec)
		}
	}
}

func TestSLOUnconstrainedUnchanged(t *testing.T) {
	// Without an SLO the same target's cost optimum is index 0.
	naive, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeCost, EIStopFraction: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := naive.Search(newSLOTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestIndex != 0 || !res.SLOSatisfied {
		t.Errorf("unconstrained best = %d (SLOSatisfied=%v), want 0, true", res.BestIndex, res.SLOSatisfied)
	}
}

func TestSLOHybrid(t *testing.T) {
	hybrid, err := New(Config{Method: MethodHybridBO, Objective: MinimizeCost, MaxTimeSLO: 50, DeltaThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hybrid.Search(newSLOTarget())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SLOSatisfied {
		t.Fatal("SLO should be satisfiable")
	}
	if res.BestIndex != 3 {
		t.Errorf("best = %d, want 3 (cheapest feasible)", res.BestIndex)
	}
}
