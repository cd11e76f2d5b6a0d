package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/lowlevel"
)

// failingTarget wraps fakeTarget with richer fault injection than failAt:
// a set of always-failing candidates and an optional fatal error fired
// after a fixed number of successful measurements.
type failingTarget struct {
	*fakeTarget
	failSet    map[int]bool
	fatalAfter int // fire fatalErr once this many measurements succeeded; 0 = never
	fatalErr   error
}

func newFailingTarget(values []float64, fail ...int) *failingTarget {
	t := &failingTarget{fakeTarget: newFakeTarget(values), failSet: map[int]bool{}}
	for _, idx := range fail {
		t.failSet[idx] = true
	}
	return t
}

func (f *failingTarget) Measure(i int) (Outcome, error) {
	if f.fatalAfter > 0 && len(f.measured) >= f.fatalAfter {
		return Outcome{}, f.fatalErr
	}
	if f.failSet[i] {
		return Outcome{}, fmt.Errorf("candidate %d is down", i)
	}
	return f.fakeTarget.Measure(i)
}

// designValues is a 12-candidate catalog with a clear optimum at index 7.
func designValues() []float64 {
	return []float64{9, 8, 7, 6, 5, 4, 3, 1, 3.5, 4.5, 5.5, 6.5}
}

func TestInitialDesignFailureIsReplaced(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 3, true) {
		if name == "random-search" {
			continue // random search has no initial design
		}
		t.Run(name, func(t *testing.T) {
			// Find which candidates the fault-free design measures, then
			// fail the first of them.
			probe := newFailingTarget(designValues())
			res, err := opt.Search(probe)
			if err != nil {
				t.Fatal(err)
			}
			var designIdx []int
			for _, step := range res.Steps {
				if step.FromDesign {
					designIdx = append(designIdx, step.Index)
				}
			}
			if len(designIdx) == 0 {
				t.Fatal("no design steps recorded")
			}
			failed := designIdx[0]

			target := newFailingTarget(designValues(), failed)
			res, err = opt.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			design := 0
			for _, step := range res.Steps {
				if step.FromDesign {
					design++
				}
			}
			if design < len(designIdx) {
				t.Errorf("design shrank to %d points after a failure, want >= %d (replacement)", design, len(designIdx))
			}
			found := false
			for _, f := range res.Failures {
				if f.Index == failed {
					found = true
					if !f.FromDesign {
						t.Error("design failure not flagged FromDesign")
					}
				}
			}
			if !found {
				t.Errorf("failures = %+v, want candidate %d recorded", res.Failures, failed)
			}
		})
	}
}

func TestAllCandidatesQuarantined(t *testing.T) {
	values := designValues()
	all := make([]int, len(values))
	for i := range all {
		all[i] = i
	}
	for name, opt := range allOptimizers(t, MinimizeTime, 3, true) {
		t.Run(name, func(t *testing.T) {
			target := newFailingTarget(values, all...)
			res, err := opt.Search(target)
			if !errors.Is(err, ErrAllCandidatesFailed) {
				t.Fatalf("error = %v, want ErrAllCandidatesFailed", err)
			}
			if res == nil {
				t.Fatal("result must not be nil: the failure record is in it")
			}
			if !res.Partial {
				t.Error("result should be partial")
			}
			if res.NumMeasurements() != 0 {
				t.Errorf("%d observations from an all-failing target", res.NumMeasurements())
			}
			if len(res.Failures) == 0 {
				t.Error("no failures recorded")
			}
			if res.BestIndex != -1 {
				t.Errorf("BestIndex = %d, want -1", res.BestIndex)
			}
		})
	}
}

func TestFatalErrorReturnsPartialResult(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 3, true) {
		t.Run(name, func(t *testing.T) {
			target := newFailingTarget(designValues())
			target.fatalAfter = 4
			target.fatalErr = context.Canceled
			res, err := opt.Search(target)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("fatal abort must still return the partial result")
			}
			if !res.Partial {
				t.Error("aborted result should be partial")
			}
			if res.NumMeasurements() != 4 {
				t.Errorf("partial result carries %d observations, want the 4 completed", res.NumMeasurements())
			}
			if res.BestIndex < 0 {
				t.Error("partial result should still report the best-so-far")
			}
		})
	}
}

func TestFatalMarkedErrorAborts(t *testing.T) {
	sentinel := errors.New("catalog revoked")
	target := newFailingTarget(designValues())
	target.fatalAfter = 2
	target.fatalErr = Fatal(sentinel)
	opt, err := New(Config{Method: MethodRandomSearch, Objective: MinimizeTime, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want the Fatal-marked sentinel", err)
	}
	if res == nil || !res.Partial || res.NumMeasurements() != 2 {
		t.Fatalf("partial result = %+v, want 2 observations", res)
	}
}

func TestIncumbentBestFailureDoesNotAbort(t *testing.T) {
	// The optimum (index 7) permanently fails. Every method must finish
	// and settle on the true runner-up without ever aborting.
	values := designValues()
	runnerUp, runnerVal := -1, values[7]+1000
	for i, v := range values {
		if i != 7 && v < runnerVal {
			runnerUp, runnerVal = i, v
		}
	}
	for name, opt := range allOptimizers(t, MinimizeTime, 5, true) {
		t.Run(name, func(t *testing.T) {
			target := newFailingTarget(values, 7)
			res, err := opt.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumMeasurements() != len(values)-1 {
				t.Fatalf("measured %d, want %d (everything but the failed optimum)",
					res.NumMeasurements(), len(values)-1)
			}
			if res.BestIndex != runnerUp {
				t.Errorf("best = %d, want runner-up %d", res.BestIndex, runnerUp)
			}
		})
	}
}

func TestCorruptedOutcomeQuarantined(t *testing.T) {
	// Candidate 2 reports a NaN metric: the validation gate must
	// quarantine it before it reaches a surrogate.
	target := newFakeTarget(designValues())
	var bad lowlevel.Vector
	bad[lowlevel.CPUUser] = math.NaN()
	target.metrics[2] = bad
	opt, err := New(Config{Method: MethodRandomSearch, Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Index != 2 {
		t.Fatalf("failures = %+v, want candidate 2", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, ErrInvalidOutcome) {
		t.Errorf("failure error = %v, want ErrInvalidOutcome", res.Failures[0].Err)
	}
}

func TestValidateOutcome(t *testing.T) {
	good := Outcome{TimeSec: 10, CostUSD: 0.5}
	if err := ValidateOutcome(good); err != nil {
		t.Fatalf("valid outcome rejected: %v", err)
	}
	cases := []Outcome{
		{TimeSec: math.NaN(), CostUSD: 1},
		{TimeSec: math.Inf(1), CostUSD: 1},
		{TimeSec: -3, CostUSD: 1},
		{TimeSec: 0, CostUSD: 1},
		{TimeSec: 10, CostUSD: math.NaN()},
		{TimeSec: 10, CostUSD: -1},
	}
	for i, out := range cases {
		if err := ValidateOutcome(out); !errors.Is(err, ErrInvalidOutcome) {
			t.Errorf("case %d: error = %v, want ErrInvalidOutcome", i, err)
		}
	}
	var badMetrics lowlevel.Vector
	badMetrics[lowlevel.DiskUtil] = 1e6 // utilization over 100%
	if err := ValidateOutcome(Outcome{TimeSec: 10, CostUSD: 1, Metrics: badMetrics}); !errors.Is(err, ErrInvalidOutcome) {
		t.Errorf("bad metrics: error = %v, want ErrInvalidOutcome", err)
	}
}

// TestAcceptMeasurement pins the search loop's acceptance rule on each
// kind of Measure return: accepted, quarantined (a plain error or an
// outcome that would poison the surrogates, a zero objective included)
// or search-fatal.
func TestAcceptMeasurement(t *testing.T) {
	target := newFakeTarget(exhaustiveValues())
	good, err := target.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	free := good
	free.CostUSD = 0
	negative := good
	negative.TimeSec = -1
	cases := []struct {
		name      string
		objective Objective
		out       Outcome
		merr      error
		fatal     bool
		want      string // error text, "" when accepted
	}{
		{"accepted", MinimizeTime, good, nil, false, ""},
		{"zero cost under the time objective", MinimizeTime, free, nil, false, ""},
		{"measure error", MinimizeTime, Outcome{}, errors.New("down"), false, "core: measuring vm-3: down"},
		{"fatal measure error", MinimizeTime, Outcome{}, Fatal(errors.New("abort")), true, "core: measuring vm-3: abort"},
		{"cancelled", MinimizeTime, Outcome{}, context.Canceled, true, "core: measuring vm-3: context canceled"},
		{"invalid outcome", MinimizeTime, negative, nil, false, "core: measurement of vm-3: core: invalid measurement outcome: execution time -1"},
		{"zero objective", MinimizeCost, free, nil, false, "core: measurement of vm-3 yielded invalid objective 0: core: invalid measurement outcome"},
		{"invalid objective", Objective(0), good, nil, true, "core: invalid objective 0"},
	}
	for _, tc := range cases {
		val, err := AcceptMeasurement(target, 3, tc.objective, tc.out, tc.merr)
		if tc.want == "" {
			if err != nil || val != good.TimeSec {
				t.Errorf("%s: got (%v, %v), want (%v, nil)", tc.name, val, err, good.TimeSec)
			}
			continue
		}
		if err == nil || err.Error() != tc.want || fatalMeasurement(err) != tc.fatal {
			t.Errorf("%s: got %v (fatal %v), want %q (fatal %v)", tc.name, err, err != nil && fatalMeasurement(err), tc.want, tc.fatal)
		}
	}
}
