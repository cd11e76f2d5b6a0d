package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/acquisition"
	"repro/internal/forest"
	"repro/internal/kernel"
	"repro/internal/lowlevel"
)

func TestNewNaiveBOValidation(t *testing.T) {
	if _, err := New(Config{Method: MethodNaiveBO, EIStopFraction: 1.5}); err == nil {
		t.Error("EI fraction > 1 should fail")
	}
	c := Config{Method: MethodNaiveBO, Objective: MinimizeTime}
	if _, err := New(c); err != nil {
		t.Fatal(err)
	}
	c = c.Canonical()
	if c.Kernel != kernel.Matern52 {
		t.Errorf("default kernel = %v, want Matérn 5/2 (CherryPick)", c.Kernel)
	}
	if c.EIStopFraction != DefaultEIStopFraction {
		t.Errorf("default EI stop = %v", c.EIStopFraction)
	}
}

func TestNewAugmentedBOValidation(t *testing.T) {
	if _, err := New(Config{Method: MethodAugmentedBO, DeltaThreshold: 0.2}); err == nil {
		t.Error("absurd delta threshold should fail")
	}
	c := Config{Method: MethodAugmentedBO, Objective: MinimizeCost}
	if _, err := New(c); err != nil {
		t.Fatal(err)
	}
	if got := c.Canonical().DeltaThreshold; got != DefaultDeltaThreshold {
		t.Errorf("default delta = %v, want %v", got, DefaultDeltaThreshold)
	}
}

// TestStopThresholdMustBeAbleToFire: a NaN or +Inf stop threshold makes
// the stopping rule's comparison always false, so the search would
// silently measure the whole catalog. New rejects them; negative values,
// -Inf included, are the documented way to disable the rule.
func TestStopThresholdMustBeAbleToFire(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		wantErr   bool
	}{
		{math.NaN(), true},
		{math.Inf(1), true},
		{math.Inf(-1), false},
		{-1, false},
	} {
		_, errAug := New(Config{Method: MethodAugmentedBO, Objective: MinimizeCost, DeltaThreshold: tc.threshold})
		_, errNaive := New(Config{Method: MethodNaiveBO, Objective: MinimizeCost, EIStopFraction: tc.threshold})
		_, errHybrid := New(Config{Method: MethodHybridBO, Objective: MinimizeCost, EIStopFraction: tc.threshold, DeltaThreshold: tc.threshold})
		for name, err := range map[string]error{"augmented": errAug, "naive": errNaive, "hybrid": errHybrid} {
			if (err != nil) != tc.wantErr || (err != nil && !errors.Is(err, ErrBadConfig)) {
				t.Errorf("%s, stop threshold %v: error %v, want ErrBadConfig: %v", name, tc.threshold, err, tc.wantErr)
			}
		}
	}
}

// TestNewHybridBOValidation: a hybrid validates its switch point and
// what its two phases read, and nothing else — its opening phase never
// EI-stops, so it does not validate EIStopFraction.
func TestNewHybridBOValidation(t *testing.T) {
	if _, err := New(Config{Method: MethodHybridBO, Objective: MinimizeTime, SwitchAfter: 1}); !errors.Is(err, ErrBadConfig) {
		t.Error("switch-after 1 should fail")
	}
	if _, err := New(Config{Method: MethodHybridBO, Objective: MinimizeTime, DeltaThreshold: 0.2}); !errors.Is(err, ErrBadConfig) {
		t.Error("absurd delta threshold should fail")
	}
	if _, err := New(Config{Method: MethodHybridBO, Objective: MinimizeTime, EIStopFraction: math.NaN()}); err != nil {
		t.Errorf("EI stop fraction the hybrid never reads rejected: %v", err)
	}
	if _, err := New(Config{Method: Method(0), Objective: MinimizeTime}); !errors.Is(err, ErrBadConfig) {
		t.Error("unknown method should fail")
	}
}

// TestCanonicalFollowsThePolicyTable: Canonical fills each default a
// method reads, collapses every disabled stopping threshold to -1 and
// zeroes what the method does not read, so configs that search alike
// are equal once canonical.
func TestCanonicalFollowsThePolicyTable(t *testing.T) {
	every := Config{
		Kernel: kernel.RBF, AutoKernel: true, Acquisition: acquisition.ProbabilityOfImprovement, ARD: true,
		MaxTimeSLO: 50, EIStopFraction: -5, DeltaThreshold: -0.5, SwitchAfter: 6,
		Design:          DesignConfig{Kind: DesignUniform, NumInitial: 4, Fixed: []int{1}},
		DisableLowLevel: true, WarmStart: []PriorObservation{{Features: []float64{1}, Value: 1}},
		Objective: MinimizeCost, MaxMeasurements: 7, Seed: 9,
	}
	for _, m := range []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch} {
		c := every
		c.Method = m
		got := c.Canonical()
		r := reads[m]
		check := func(field string, set bool, read setting) {
			t.Helper()
			if set != (r&read != 0) {
				t.Errorf("%v: %s set = %v, want it set only when read", m, field, set)
			}
		}
		check("Kernel", got.Kernel != 0, readsGP)
		check("AutoKernel", got.AutoKernel, readsGP)
		check("Acquisition", got.Acquisition != 0, readsGP)
		check("ARD", got.ARD, readsGP)
		check("EIStopFraction", got.EIStopFraction == -1, readsEIStop)
		check("DeltaThreshold", got.DeltaThreshold == -1, readsDelta)
		check("SwitchAfter", got.SwitchAfter == 6, readsSwitch)
		check("MaxTimeSLO", got.MaxTimeSLO == 50, readsSLO)
		check("Design", got.Design.Kind == DesignUniform && got.Design.NumInitial == 4 && got.Design.Fixed == nil, readsDesign)
		check("DisableLowLevel", got.DisableLowLevel, readsPairs)
		check("WarmStart", got.WarmStart != nil, readsPairs)
		check("forest", got.Forest().NumTrees == forest.DefaultNumTrees && got.Forest().SampleRate == defaultPairSampleRate, readsPairs)
		if got.Objective != MinimizeCost || got.MaxMeasurements != 7 || got.Seed != 9 || got.Method != m {
			t.Errorf("%v: canonical form dropped a field every method reads: %+v", m, got)
		}
	}
	zero := Config{Method: MethodHybridBO}.Canonical()
	want := Config{
		Method: MethodHybridBO, Kernel: kernel.Matern52, Acquisition: acquisition.ExpectedImprovement,
		DeltaThreshold: DefaultDeltaThreshold, SwitchAfter: DefaultSwitchAfter,
		Design: DesignConfig{Kind: DesignQuasiRandom, NumInitial: DefaultNumInitial},
		forest: forest.Config{NumTrees: forest.DefaultNumTrees, MinSamplesSplit: forest.DefaultMinSamplesSplit, SampleRate: defaultPairSampleRate},
	}
	if !reflect.DeepEqual(zero, want) {
		t.Errorf("zero hybrid canonical = %+v, want %+v", zero, want)
	}
}

func TestOptimizerNames(t *testing.T) {
	for want, opt := range allOptimizers(t, MinimizeTime, 1, true) {
		if opt.Name() != want {
			t.Errorf("Name() = %q, want %q", opt.Name(), want)
		}
	}
}

// steppedTarget returns a target whose value cliff correlates perfectly
// with a low-level metric: candidates with feature[0] >= 5 are 10x worse,
// and their MemCommit metric says so. Instance features alone (feature 1)
// carry no signal about the cliff.
func steppedTarget() *fakeTarget {
	values := []float64{2, 2.2, 1.8, 2.1, 1.5, 20, 22, 21, 19, 23}
	t := newFakeTarget(values)
	for i := range t.metrics {
		if values[i] > 10 {
			t.metrics[i][lowlevel.MemCommit] = 140
			t.metrics[i][lowlevel.IOWait] = 80
			t.metrics[i][lowlevel.CPUUser] = 15
		} else {
			t.metrics[i][lowlevel.MemCommit] = 35
			t.metrics[i][lowlevel.IOWait] = 5
			t.metrics[i][lowlevel.CPUUser] = 85
		}
	}
	return t
}

func TestAugmentedBOStopsEarlyWithDelta(t *testing.T) {
	aug, err := New(Config{
		Method:         MethodAugmentedBO,
		Objective:      MinimizeTime,
		DeltaThreshold: 1.1,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := aug.Search(steppedTarget())
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatal("expected early stop on a flat-bottomed landscape")
	}
	if res.NumMeasurements() >= 10 {
		t.Errorf("measured %d, expected early stop to save measurements", res.NumMeasurements())
	}
	if !strings.Contains(res.StopReason, "predicted") {
		t.Errorf("stop reason %q should mention prediction", res.StopReason)
	}
	// The found VM should be in the good cluster.
	if res.BestValue > 10 {
		t.Errorf("stopped on a bad VM: %v", res.BestValue)
	}
}

func TestNaiveBOStopsEarlyWithEI(t *testing.T) {
	naive, err := New(Config{
		Method:         MethodNaiveBO,
		Objective:      MinimizeTime,
		EIStopFraction: 0.10,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly flat landscape: EI collapses immediately.
	flat := newFakeTarget([]float64{5, 5, 5, 5, 5, 5, 5, 5})
	res, err := naive.Search(flat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Error("expected early stop on flat landscape")
	}
	if res.NumMeasurements() >= 8 {
		t.Errorf("measured %d of 8 despite flat landscape", res.NumMeasurements())
	}
}

func TestNaiveBOAllKernels(t *testing.T) {
	for _, k := range kernel.All() {
		t.Run(k.String(), func(t *testing.T) {
			naive, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeTime, Kernel: k, EIStopFraction: -1, Seed: 2})
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
		})
	}
}

// TestAugmentedBOExploitsLowLevelSignal is the paper's core claim in
// miniature: when the response cliff is invisible in the instance space
// but perfectly flagged by the low-level metrics of measured VMs, the
// pairwise surrogate should steer the search away from the bad cluster
// faster than chance. We check that once two good and one bad VM are
// measured, the next augmented pick is in the good cluster.
func TestAugmentedBOExploitsLowLevelSignal(t *testing.T) {
	goodPicks, trials := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		target := steppedTarget()
		aug, err := New(Config{
			Method:         MethodAugmentedBO,
			Objective:      MinimizeTime,
			DeltaThreshold: -1,
			Seed:           seed,
			Design:         DesignConfig{Kind: DesignFixed, Fixed: []int{0, 5, 2}, NumInitial: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := aug.Search(target)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		if res.Observations[3].Value < 10 {
			goodPicks++
		}
	}
	if goodPicks < trials*3/4 {
		t.Errorf("augmented BO picked a good VM after the design in only %d/%d trials", goodPicks, trials)
	}
}

func TestAugmentedBOForestConfigRespected(t *testing.T) {
	aug, err := New(Config{
		Method:         MethodAugmentedBO,
		Objective:      MinimizeTime,
		DeltaThreshold: -1,
		forest:         forest.Config{NumTrees: 10},
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aug.Search(newFakeTarget(exhaustiveValues())); err != nil {
		t.Fatal(err)
	}
}

func TestHybridSwitchAfter(t *testing.T) {
	// With SwitchAfter = 6, the first 6 measurements must match Naive BO's
	// choices exactly (same seed), since the hybrid runs Naive first.
	seed := int64(9)
	naive, err := New(Config{Method: MethodNaiveBO, Objective: MinimizeTime, Seed: seed, EIStopFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := New(Config{Method: MethodHybridBO, Objective: MinimizeTime, Seed: seed, DeltaThreshold: -1, SwitchAfter: 6})
	if err != nil {
		t.Fatal(err)
	}
	tn := newFakeTarget(exhaustiveValues())
	if _, err := naive.Search(tn); err != nil {
		t.Fatal(err)
	}
	th := newFakeTarget(exhaustiveValues())
	if _, err := hybrid.Search(th); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if tn.measured[i] != th.measured[i] {
			t.Fatalf("hybrid step %d = %d, naive = %d", i, th.measured[i], tn.measured[i])
		}
	}
}

func TestHybridResultMethodName(t *testing.T) {
	hybrid, err := New(Config{Method: MethodHybridBO, Objective: MinimizeTime})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hybrid.Search(newFakeTarget(exhaustiveValues()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "hybrid-bo" {
		t.Errorf("method = %q", res.Method)
	}
}

func TestRandomSearchOrderVariesWithSeed(t *testing.T) {
	order := func(seed int64) []int {
		opt, err := New(Config{Method: MethodRandomSearch, Objective: MinimizeTime, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		target := newFakeTarget(exhaustiveValues())
		if _, err := opt.Search(target); err != nil {
			t.Fatal(err)
		}
		return target.measured
	}
	a, b := order(1), order(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical random order")
	}
}

func TestPairRowLayout(t *testing.T) {
	src := []float64{1, 2}
	dst := []float64{3, 4}
	var m lowlevel.Vector
	for i := range m {
		m[i] = float64(10 + i)
	}
	row := appendPairRow(nil, src, &m, dst)
	wantLen := len(src) + int(lowlevel.NumMetrics) + len(dst)
	if len(row) != wantLen {
		t.Fatalf("row len %d, want %d", len(row), wantLen)
	}
	// Appending to non-empty scratch must extend, not restart.
	scratch := make([]float64, 0, wantLen)
	if again := appendPairRow(scratch, src, &m, dst); len(again) != wantLen {
		t.Fatalf("scratch row len %d, want %d", len(again), wantLen)
	}
	if row[0] != 1 || row[1] != 2 {
		t.Error("source features misplaced")
	}
	if row[2] != 10 {
		t.Error("metrics misplaced")
	}
	if row[wantLen-2] != 3 || row[wantLen-1] != 4 {
		t.Error("destination features misplaced")
	}
}

func TestAugmentedBONeedsTwoObservationsForPairs(t *testing.T) {
	st, err := newSearchState(newFakeTarget(exhaustiveValues()), MinimizeTime)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := New(Config{Method: MethodAugmentedBO, Objective: MinimizeTime})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := st.measure(0, 0, true); err != nil || !ok {
		t.Fatalf("measure: ok=%v err=%v", ok, err)
	}
	if _, err := aug.(*optimizer).fitPairModel(st, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v, want ErrBadConfig with one observation", err)
	}
}
