package core

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// tracedSearch runs one search with a recording tracer and returns the
// full result plus the wall-stripped trace — the deterministic projection
// the golden-trace contract covers.
func tracedSearch(t *testing.T, build func(tr telemetry.Tracer) (Optimizer, error)) (*Result, []telemetry.Event) {
	t.Helper()
	rec := telemetry.NewRecorder()
	opt, err := build(rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(newFakeTarget(catalogValues()))
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	for i := range events {
		events[i] = events[i].StripWall()
	}
	return res, events
}

// refitWallStats tallies the refit dispositions recorded in surrogate-fit
// wall data, so the tests can assert the incremental path actually ran
// (not just that it agreed with the full path).
func refitWallStats(rec *telemetry.Recorder) (incremental, full int) {
	for _, e := range rec.Events() {
		if e.Kind != telemetry.KindSurrogateFit || e.Wall == nil {
			continue
		}
		switch e.Wall.Refit {
		case "incremental":
			incremental++
		case "full":
			full++
		}
	}
	return incremental, full
}

// TestIncrementalRefitBitIdenticalSearches is the end-to-end equivalence
// contract of this PR: for every optimizer, a search with incremental
// surrogate refits produces the exact same Result and the exact same
// wall-stripped trace as one that re-fits from scratch every iteration.
// Only the Wall data (durations, refit dispositions) may differ.
func TestIncrementalRefitBitIdenticalSearches(t *testing.T) {
	warm := []PriorObservation{
		{Features: []float64{0.5, 1.5}, Metrics: newFakeTarget(catalogValues()).metrics[3], Value: 5.5},
		{Features: []float64{2.5, 0.5}, Metrics: newFakeTarget(catalogValues()).metrics[5], Value: 7.25},
	}
	cases := []struct {
		name  string
		build func(tr telemetry.Tracer, disable bool) (Optimizer, error)
	}{
		{"random", func(tr telemetry.Tracer, disable bool) (Optimizer, error) {
			// No surrogate, so nothing to refit — included so the contract
			// is stated (and checked) for all four methods.
			return NewRandomSearch(RandomSearchConfig{Objective: MinimizeCost, Seed: 17, Tracer: tr})
		}},
		{"naive", func(tr telemetry.Tracer, disable bool) (Optimizer, error) {
			return NewNaiveBO(NaiveBOConfig{
				Objective:      MinimizeCost,
				Seed:           9,
				AutoKernel:     true,
				MaxTimeSLO:     11, // exercise the gp-time fit sharing factors with gp
				EIStopFraction: -1, // run long: more extend steps under comparison
				fullRefit:      disable,
				Tracer:         tr,
			})
		}},
		{"augmented", func(tr telemetry.Tracer, disable bool) (Optimizer, error) {
			return NewAugmentedBO(AugmentedBOConfig{
				Objective:      MinimizeCost,
				Seed:           11,
				MaxTimeSLO:     11, // second pairwise model rides the same cache
				DeltaThreshold: -1,
				WarmStart:      warm,
				fullRefit:      disable,
				Tracer:         tr,
			})
		}},
		{"hybrid", func(tr telemetry.Tracer, disable bool) (Optimizer, error) {
			return NewHybridBO(HybridBOConfig{
				Naive: NaiveBOConfig{
					Objective: MinimizeCost,
					Seed:      5,
					fullRefit: disable,
				},
				Augmented: AugmentedBOConfig{
					Objective:      MinimizeCost,
					Seed:           5,
					DeltaThreshold: -1,
					fullRefit:      disable,
				},
				Tracer: tr,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			incRes, incTrace := tracedSearch(t, func(tr telemetry.Tracer) (Optimizer, error) {
				return tc.build(tr, false)
			})
			fullRes, fullTrace := tracedSearch(t, func(tr telemetry.Tracer) (Optimizer, error) {
				return tc.build(tr, true)
			})
			if !reflect.DeepEqual(incRes, fullRes) {
				t.Errorf("results diverge between incremental and full refits:\n inc: %+v\nfull: %+v", incRes, fullRes)
			}
			if !reflect.DeepEqual(incTrace, fullTrace) {
				for i := range incTrace {
					if i >= len(fullTrace) || !reflect.DeepEqual(incTrace[i], fullTrace[i]) {
						t.Fatalf("wall-stripped traces diverge at event %d:\n inc: %+v\nfull: %+v", i, incTrace[i], fullTrace[i])
					}
				}
				t.Fatalf("wall-stripped traces diverge in length: %d vs %d", len(incTrace), len(fullTrace))
			}
		})
	}
}

// TestIncrementalRefitActuallyIncremental guards against the equivalence
// test passing vacuously: steady-state iterations must report the
// incremental disposition in their fit telemetry, and the full-refit
// switch must suppress it entirely.
func TestIncrementalRefitActuallyIncremental(t *testing.T) {
	run := func(disable bool) (incremental, full int) {
		rec := telemetry.NewRecorder()
		opt, err := NewHybridBO(HybridBOConfig{
			Naive:     NaiveBOConfig{Objective: MinimizeCost, Seed: 5, fullRefit: disable},
			Augmented: AugmentedBOConfig{Objective: MinimizeCost, Seed: 5, DeltaThreshold: -1, fullRefit: disable},
			Tracer:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Search(newFakeTarget(catalogValues())); err != nil {
			t.Fatal(err)
		}
		return refitWallStats(rec)
	}
	inc, full := run(false)
	if inc == 0 {
		t.Error("incremental mode: no fit reported the incremental disposition")
	}
	if full == 0 {
		t.Error("incremental mode: the first fit of each model should be full")
	}
	inc, full = run(true)
	if inc != 0 {
		t.Errorf("full-refit mode: %d fits still reported incremental", inc)
	}
	if full == 0 {
		t.Error("full-refit mode: fits should report the full disposition")
	}
}
