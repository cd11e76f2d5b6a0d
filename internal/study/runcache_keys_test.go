package study

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/runcache"
	"repro/internal/sim"
)

// TestRunCacheKeysPinned holds the run-cache key of a set of method
// configurations to literal SHA-256 values. A persisted run cache is
// addressed by these keys, so a refactor of how a MethodConfig becomes
// a fingerprint must leave every one byte-identical: a changed key
// silently recomputes (or, worse, collides with) cached searches. The
// set covers each method at its zero config and with its defaults
// spelled out, disabled stopping rules, a fixed design, a non-default
// switch point, and every configuration e2ebench's study grid runs.
func TestRunCacheKeysPinned(t *testing.T) {
	fixed := core.DesignConfig{Kind: core.DesignFixed, Fixed: []int{0, 5, 9}, NumInitial: 3}
	quasi3 := core.DesignConfig{Kind: core.DesignQuasiRandom, NumInitial: core.DefaultNumInitial}
	cases := []struct {
		name string
		mc   MethodConfig
		want runcache.Key
	}{
		{"naive zero", MethodConfig{Method: MethodNaive}, "6947b234bfd55f93520f9ad0763fac8c4f06d5f966e6aff9161874eb6db08fe1"},
		{"augmented zero", MethodConfig{Method: MethodAugmented}, "d08c9c5c0496136ddc91f56e9fc5dde99d4683c79238f2e2d418071ac7c1a549"},
		{"hybrid zero", MethodConfig{Method: MethodHybrid}, "27cb7d963f439fb2cd978b49225abd9ce35ba3109c195754dceff694ca262e57"},
		{"random zero", MethodConfig{Method: MethodRandom}, "9420b16409729681fd4a130d0716cb33d12761c0eaed11bd1912f24d723faf07"},
		{"naive explicit defaults", MethodConfig{Method: MethodNaive, Kernel: kernel.Matern52, EIStop: 0.10, Design: quasi3}, "6947b234bfd55f93520f9ad0763fac8c4f06d5f966e6aff9161874eb6db08fe1"},
		{"augmented explicit defaults", MethodConfig{Method: MethodAugmented, Delta: 1.1, Design: quasi3}, "d08c9c5c0496136ddc91f56e9fc5dde99d4683c79238f2e2d418071ac7c1a549"},
		{"hybrid explicit defaults", MethodConfig{Method: MethodHybrid, Kernel: kernel.Matern52, Delta: 1.1, SwitchAfter: 4, Design: quasi3}, "27cb7d963f439fb2cd978b49225abd9ce35ba3109c195754dceff694ca262e57"},
		{"naive ei-stop -1", MethodConfig{Method: MethodNaive, EIStop: -1}, "d2d918c3cab2eb87665d0681ad674a29e2141e218fc62ec877cd0ae853c3db25"},
		{"naive ei-stop -0.5", MethodConfig{Method: MethodNaive, EIStop: -0.5}, "d2d918c3cab2eb87665d0681ad674a29e2141e218fc62ec877cd0ae853c3db25"},
		{"augmented delta -1", MethodConfig{Method: MethodAugmented, Delta: -1}, "4922f7853a76f03acb3727f180faf153fe478379eeeb843dcee726fe9d38d305"},
		{"augmented delta -0.5", MethodConfig{Method: MethodAugmented, Delta: -0.5}, "4922f7853a76f03acb3727f180faf153fe478379eeeb843dcee726fe9d38d305"},
		{"hybrid delta -1", MethodConfig{Method: MethodHybrid, Delta: -1}, "9b1aaddb07704a1a76401fb31024d6fa8762f4f4320e4602f6a05142fe4d21da"},
		{"hybrid delta -0.5", MethodConfig{Method: MethodHybrid, Delta: -0.5}, "9b1aaddb07704a1a76401fb31024d6fa8762f4f4320e4602f6a05142fe4d21da"},
		{"naive fixed design", MethodConfig{Method: MethodNaive, Design: fixed}, "935e587b928a3d49b1123e3289ab76deffdcaa63ed101724c05f4f3164d3acb7"},
		{"augmented fixed design", MethodConfig{Method: MethodAugmented, Design: fixed}, "3997d73be2ad1ee937e16c3e97b3e980293f613d24c126ec3af1c415d259f469"},
		{"hybrid fixed design", MethodConfig{Method: MethodHybrid, Design: fixed}, "9a1e1fe937e833b4338f7c58b14daf829e4d8e919c9530225c567a545f6af002"},
		{"hybrid switch-after 6", MethodConfig{Method: MethodHybrid, SwitchAfter: 6}, "aa247e14d4a0c1a67871435357d0edf4407df7eff99779881cb9a7ee467c41b5"},
		{"naive rbf", MethodConfig{Method: MethodNaive, Kernel: kernel.RBF}, "8692da90f92310384022e670679706069f06fcca88c2c9a28e3cd4d963668611"},
		{"grid naive stop off", MethodConfig{Method: MethodNaive, EIStop: -1, Delta: -1}, "d2d918c3cab2eb87665d0681ad674a29e2141e218fc62ec877cd0ae853c3db25"},
		{"grid augmented stop off", MethodConfig{Method: MethodAugmented, EIStop: -1, Delta: -1}, "4922f7853a76f03acb3727f180faf153fe478379eeeb843dcee726fe9d38d305"},
		{"grid hybrid stop off", MethodConfig{Method: MethodHybrid, EIStop: -1, Delta: -1}, "9b1aaddb07704a1a76401fb31024d6fa8762f4f4320e4602f6a05142fe4d21da"},
		{"grid compare naive", MethodConfig{Method: MethodNaive, EIStop: 0.10}, "6947b234bfd55f93520f9ad0763fac8c4f06d5f966e6aff9161874eb6db08fe1"},
		{"grid compare augmented", MethodConfig{Method: MethodAugmented, Delta: 1.1}, "d08c9c5c0496136ddc91f56e9fc5dde99d4683c79238f2e2d418071ac7c1a549"},
	}
	for _, tc := range cases {
		got := tc.mc.Fingerprint("als/spark2.1/medium", core.MinimizeCost, 3, sim.SubstrateVersion).Key()
		if got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}
