package study

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/runcache"
	"repro/internal/sim"
)

func baseKey(mc MethodConfig) runcache.Key {
	return mc.Fingerprint("als/spark2.1/medium", core.MinimizeCost, 3, sim.SubstrateVersion).Key()
}

// TestFingerprintSemanticFieldsAlterKey: every change that alters what a
// method would actually do must produce a different cache key.
func TestFingerprintSemanticFieldsAlterKey(t *testing.T) {
	cases := []struct {
		name string
		a, b MethodConfig
	}{
		{"method", MethodConfig{Method: MethodNaive}, MethodConfig{Method: MethodAugmented}},
		{"naive kernel", MethodConfig{Method: MethodNaive, Kernel: kernel.RBF}, MethodConfig{Method: MethodNaive, Kernel: kernel.Matern32}},
		{"naive ei-stop value", MethodConfig{Method: MethodNaive, EIStop: 0.05}, MethodConfig{Method: MethodNaive, EIStop: 0.2}},
		{"naive ei-stop enabled vs disabled", MethodConfig{Method: MethodNaive, EIStop: 0.1}, MethodConfig{Method: MethodNaive, EIStop: -1}},
		{"augmented delta", MethodConfig{Method: MethodAugmented, Delta: 1.05}, MethodConfig{Method: MethodAugmented, Delta: 1.2}},
		{"hybrid switch point", MethodConfig{Method: MethodHybrid, SwitchAfter: 5}, MethodConfig{Method: MethodHybrid, SwitchAfter: 7}},
		{"hybrid kernel", MethodConfig{Method: MethodHybrid, Kernel: kernel.RBF}, MethodConfig{Method: MethodHybrid}},
		{"design kind", MethodConfig{Method: MethodNaive, Design: core.DesignConfig{Kind: core.DesignSobol}}, MethodConfig{Method: MethodNaive}},
		{"design size", MethodConfig{Method: MethodNaive, Design: core.DesignConfig{NumInitial: 4}}, MethodConfig{Method: MethodNaive}},
		{"design fixed indices", MethodConfig{Method: MethodNaive, Design: core.DesignConfig{Kind: core.DesignFixed, Fixed: []int{0, 1, 2}, NumInitial: 3}}, MethodConfig{Method: MethodNaive, Design: core.DesignConfig{Kind: core.DesignFixed, Fixed: []int{0, 1, 3}, NumInitial: 3}}},
	}
	for _, tc := range cases {
		if baseKey(tc.a) == baseKey(tc.b) {
			t.Errorf("%s: semantically different configs share a key", tc.name)
		}
	}
}

// TestFingerprintRunCoordinatesAlterKey: the same config on different
// run coordinates must never share a result.
func TestFingerprintRunCoordinatesAlterKey(t *testing.T) {
	mc := MethodConfig{Method: MethodAugmented}
	ref := mc.Fingerprint("als/spark2.1/medium", core.MinimizeCost, 3, sim.SubstrateVersion).Key()
	if mc.Fingerprint("lr/spark1.5/medium", core.MinimizeCost, 3, sim.SubstrateVersion).Key() == ref {
		t.Error("workload must alter the key")
	}
	if mc.Fingerprint("als/spark2.1/medium", core.MinimizeTime, 3, sim.SubstrateVersion).Key() == ref {
		t.Error("objective must alter the key")
	}
	if mc.Fingerprint("als/spark2.1/medium", core.MinimizeCost, 4, sim.SubstrateVersion).Key() == ref {
		t.Error("seed must alter the key")
	}
	if mc.Fingerprint("als/spark2.1/medium", core.MinimizeCost, 3, "other-substrate").Key() == ref {
		t.Error("substrate version must alter the key")
	}
}

// TestFingerprintCosmeticChangesKeepKey: configurations that build
// behaviorally identical optimizers must collide onto one key, so the
// cache actually deduplicates across experiments that spell their
// configs differently.
func TestFingerprintCosmeticChangesKeepKey(t *testing.T) {
	cases := []struct {
		name string
		a, b MethodConfig
	}{
		{"zero kernel is matern 5/2", MethodConfig{Method: MethodNaive}, MethodConfig{Method: MethodNaive, Kernel: kernel.Matern52}},
		{"zero ei-stop is the default 10%", MethodConfig{Method: MethodNaive}, MethodConfig{Method: MethodNaive, EIStop: core.DefaultEIStopFraction}},
		{"any negative ei-stop disables", MethodConfig{Method: MethodNaive, EIStop: -1}, MethodConfig{Method: MethodNaive, EIStop: -5}},
		{"any negative delta disables", MethodConfig{Method: MethodAugmented, Delta: -1}, MethodConfig{Method: MethodAugmented, Delta: -0.5}},
		{"zero delta is the default", MethodConfig{Method: MethodAugmented}, MethodConfig{Method: MethodAugmented, Delta: core.DefaultDeltaThreshold}},
		{"kernel ignored by augmented", MethodConfig{Method: MethodAugmented, Kernel: kernel.RBF}, MethodConfig{Method: MethodAugmented}},
		{"delta ignored by naive", MethodConfig{Method: MethodNaive, Delta: 1.3}, MethodConfig{Method: MethodNaive}},
		{"ei-stop ignored by hybrid", MethodConfig{Method: MethodHybrid, EIStop: 0.2}, MethodConfig{Method: MethodHybrid}},
		{"zero switch point is the default", MethodConfig{Method: MethodHybrid}, MethodConfig{Method: MethodHybrid, SwitchAfter: core.DefaultSwitchAfter}},
		{"everything ignored by random", MethodConfig{Method: MethodRandom, Kernel: kernel.RBF, EIStop: 0.2, Delta: 1.3, SwitchAfter: 6, Design: core.DesignConfig{Kind: core.DesignSobol}}, MethodConfig{Method: MethodRandom}},
		{"zero design is the quasi-random 3-point design", MethodConfig{Method: MethodNaive}, MethodConfig{Method: MethodNaive, Design: core.DesignConfig{Kind: core.DesignQuasiRandom, NumInitial: core.DefaultNumInitial}}},
	}
	for _, tc := range cases {
		if baseKey(tc.a) != baseKey(tc.b) {
			t.Errorf("%s: cosmetically different configs should share a key", tc.name)
		}
	}
}

// TestRunSearchCachedMatchesUncached: pulling a search through the cache
// must return exactly what a direct execution returns.
func TestRunSearchCachedMatchesUncached(t *testing.T) {
	cached := testRunner(t)
	uncached := NewRunner(cached.Simulator(), WithWorkloads(cached.Workloads()), WithoutRunCache())
	w := cached.Workloads()[0]
	mc := MethodConfig{Method: MethodAugmented}

	a, err := cached.RunSearch(mc, w, core.MinimizeCost, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.RunSearch(mc, w, core.MinimizeCost, 5) // warm hit
	if err != nil {
		t.Fatal(err)
	}
	c, err := uncached.RunSearch(mc, w, core.MinimizeCost, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*RunSummary{b, c} {
		if got.Measurements != a.Measurements || got.StepOptimal != a.StepOptimal ||
			got.FoundNorm != a.FoundNorm || got.StoppedEarly != a.StoppedEarly ||
			len(got.Trajectory) != len(a.Trajectory) {
			t.Fatalf("summaries differ: %+v vs %+v", got, a)
		}
		for i := range a.Trajectory {
			if got.Trajectory[i] != a.Trajectory[i] {
				t.Fatalf("trajectory[%d] differs: %v vs %v", i, got.Trajectory[i], a.Trajectory[i])
			}
		}
	}
	runs, _ := cached.CacheStats()
	if runs.Misses != 1 || runs.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit", runs)
	}
	if ur, _ := uncached.CacheStats(); ur.Lookups() != 0 {
		t.Errorf("uncached runner recorded lookups: %+v", ur)
	}
}

// TestRunSearchPersistsAndReloads: a second Runner over the same cache
// directory must serve the search from disk byte-for-byte.
func TestRunSearchPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	s := sim.New(cloud.DefaultCatalog())
	ws := testRunner(t).Workloads()[:1]
	mc := MethodConfig{Method: MethodNaive}

	cold := NewRunner(s, WithWorkloads(ws), WithCacheDir(dir))
	a, err := cold.RunSearch(mc, ws[0], core.MinimizeTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := NewRunner(s, WithWorkloads(ws), WithCacheDir(dir))
	defer warm.Close()
	b, err := warm.RunSearch(mc, ws[0], core.MinimizeTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs, _ := warm.CacheStats()
	if runs.DiskHits != 1 || runs.Misses != 0 {
		t.Fatalf("warm stats = %+v, want a pure disk hit", runs)
	}
	if a.FoundNorm != b.FoundNorm || a.Measurements != b.Measurements || len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("disk round-trip changed the summary: %+v vs %+v", a, b)
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Errorf("trajectory[%d]: %v != %v after disk round-trip", i, a.Trajectory[i], b.Trajectory[i])
		}
	}
}

// TestTruthValuesSingleflight: concurrent workers hitting an uncached
// truth key must trigger exactly one sim.TruthTable computation — the
// check-then-compute race the old mutex-around-a-map version allowed.
func TestTruthValuesSingleflight(t *testing.T) {
	r := testRunner(t)
	w := r.Workloads()[0]
	const goroutines = 16
	var wg sync.WaitGroup
	var bad atomic.Int64
	results := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals, err := r.TruthValues(w, core.MinimizeTime)
			if err != nil {
				bad.Add(1)
				return
			}
			results[g] = vals
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatal("TruthValues failed under concurrency")
	}
	_, truth := r.CacheStats()
	if truth.Misses != 1 {
		t.Errorf("truth table computed %d times for one key, want 1 (stats %+v)", truth.Misses, truth)
	}
	if truth.Lookups() != goroutines {
		t.Errorf("lookups = %d, want %d", truth.Lookups(), goroutines)
	}
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d saw different truth values", g)
			}
		}
	}
}
