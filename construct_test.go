package arrow

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestNewAcceptsExactlyWhatEachMethodReads pins, for every method, what
// New accepts and rejects with each option alone at an edge value. A
// method validates only the settings its search reads, so a Naive BO
// session journaled with a Prediction-Delta threshold of 0.3 still
// rebuilds, while Augmented BO refuses one. Rejections are compared by
// their origin, not their message: ErrBadConfig from the optimizer, or
// an error the option returns itself.
func TestNewAcceptsExactlyWhatEachMethodReads(t *testing.T) {
	const (
		ok        = "accept"
		badConfig = "reject: ErrBadConfig"
		optionErr = "reject: option"
	)
	nan := math.NaN()
	warm := func(value float64) Option {
		return WithWarmStart(PriorRun{Features: CatalogVMs()[0].Features, Value: value})
	}
	fixedDesign := []int{0, 5, 9}
	methods := []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch}
	cases := []struct {
		name string
		opts []Option
		want [4]string // naive, augmented, hybrid, random
	}{
		{"delta 0.3", []Option{WithDeltaThreshold(0.3)}, [4]string{ok, badConfig, badConfig, ok}},
		{"delta NaN", []Option{WithDeltaThreshold(nan)}, [4]string{ok, badConfig, badConfig, ok}},
		{"delta +Inf", []Option{WithDeltaThreshold(math.Inf(1))}, [4]string{ok, badConfig, badConfig, ok}},
		{"delta -1", []Option{WithDeltaThreshold(-1)}, [4]string{ok, ok, ok, ok}},
		{"ei-stop NaN", []Option{WithEIStopFraction(nan)}, [4]string{badConfig, ok, ok, ok}},
		{"ei-stop -1", []Option{WithEIStopFraction(-1)}, [4]string{ok, ok, ok, ok}},
		{"ei-stop 1.5", []Option{WithEIStopFraction(1.5)}, [4]string{optionErr, optionErr, optionErr, optionErr}},
		{"slo with PI", []Option{WithMaxTimeSLO(100), WithAcquisition(AcquisitionPI)}, [4]string{badConfig, ok, badConfig, ok}},
		{"slo with UCB", []Option{WithMaxTimeSLO(100), WithAcquisition(AcquisitionUCB)}, [4]string{badConfig, ok, badConfig, ok}},
		{"slo with MES", []Option{WithMaxTimeSLO(100), WithAcquisition(AcquisitionMES)}, [4]string{badConfig, ok, badConfig, ok}},
		{"slo with EI", []Option{WithMaxTimeSLO(100), WithAcquisition(AcquisitionEI)}, [4]string{ok, ok, ok, ok}},
		{"slo NaN", []Option{WithMaxTimeSLO(nan)}, [4]string{badConfig, badConfig, badConfig, ok}},
		{"slo +Inf", []Option{WithMaxTimeSLO(math.Inf(1))}, [4]string{badConfig, badConfig, badConfig, ok}},
		{"slo -1", []Option{WithMaxTimeSLO(-1)}, [4]string{optionErr, optionErr, optionErr, optionErr}},
		{"warm start value 0", []Option{warm(0)}, [4]string{ok, badConfig, badConfig, ok}},
		{"warm start value -1", []Option{warm(-1)}, [4]string{ok, badConfig, badConfig, ok}},
		{"warm start no features", []Option{WithWarmStart(PriorRun{Value: 1})}, [4]string{ok, badConfig, badConfig, ok}},
		{"switch-after 2", []Option{WithSwitchAfter(2)}, [4]string{ok, ok, ok, ok}},
		{"switch-after 1", []Option{WithSwitchAfter(1)}, [4]string{optionErr, optionErr, optionErr, optionErr}},
		{"candidates then design", []Option{WithInitialCandidates(fixedDesign...), WithInitialDesign(DesignSobol)}, [4]string{ok, ok, ok, ok}},
		{"design then candidates", []Option{WithInitialDesign(DesignSobol), WithInitialCandidates(fixedDesign...)}, [4]string{ok, ok, ok, ok}},
		{"candidates then size", []Option{WithInitialCandidates(fixedDesign...), WithNumInitial(5)}, [4]string{ok, ok, ok, ok}},
		{"size then candidates", []Option{WithNumInitial(5), WithInitialCandidates(fixedDesign...)}, [4]string{ok, ok, ok, ok}},
	}
	for _, tc := range cases {
		for mi, m := range methods {
			opts := append([]Option{WithMethod(m)}, tc.opts...)
			_, err := New(opts...)
			got := ok
			switch {
			case errors.Is(err, core.ErrBadConfig):
				got = badConfig
			case err != nil && optionRejects(tc.opts):
				got = optionErr
			case err != nil:
				got = fmt.Sprintf("reject: %v", err)
			}
			if got != tc.want[mi] {
				t.Errorf("%v, %s: %s, want %s", m, tc.name, got, tc.want[mi])
			}
		}
	}

	// WithInitialCandidates overrides WithInitialDesign and
	// WithNumInitial in either order: every BO method measures the
	// fixed design first.
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases[len(cases)-4:] {
		for _, m := range methods[:3] {
			opts := append([]Option{WithMethod(m), WithMaxMeasurements(len(fixedDesign))}, tc.opts...)
			opt, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Search(target)
			if err != nil {
				t.Fatal(err)
			}
			var first []int
			for _, obs := range res.Observations[:len(fixedDesign)] {
				first = append(first, obs.Index)
			}
			if !slices.Equal(first, fixedDesign) {
				t.Errorf("%v, %s: first measured %v, want the fixed design %v", m, tc.name, first, fixedDesign)
			}
		}
	}
}

// optionRejects reports whether one of opts refuses its own argument,
// before any optimizer is built.
func optionRejects(opts []Option) bool {
	for _, opt := range opts {
		if _, err := New(opt); err != nil && !errors.Is(err, core.ErrBadConfig) {
			return true
		}
	}
	return false
}
