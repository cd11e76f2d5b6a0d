package serve

import (
	"testing"

	arrow "repro"
)

// TestBuildOptimizerAcceptsFieldsTheMethodIgnores: a create body may set
// a field its method never reads — a client sharing one request template
// across methods does. The create must keep succeeding, or a journaled
// create of that shape would stop recovering after an upgrade.
func TestBuildOptimizerAcceptsFieldsTheMethodIgnores(t *testing.T) {
	for _, tc := range []struct {
		body string
		want arrow.Method
	}{
		{`{"method":"naive-bo","seed":1,"delta_threshold":0.3}`, arrow.MethodNaiveBO},
		{`{"method":"naive-bo","seed":1,"switch_after":3}`, arrow.MethodNaiveBO},
		{`{"method":"random-search","seed":1,"max_time_slo":100,"kernel":"rbf"}`, arrow.MethodRandomSearch},
		{`{"method":"random-search","seed":1,"delta_threshold":0.3,"ei_stop_fraction":0.5}`, arrow.MethodRandomSearch},
		{`{"method":"augmented-bo","seed":1,"ei_stop_fraction":0.5,"kernel":"matern12"}`, arrow.MethodAugmentedBO},
		{`{"method":"hybrid-bo","seed":1,"ei_stop_fraction":0.5}`, arrow.MethodHybridBO},
	} {
		req, err := DecodeSessionRequest([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.body, err)
		}
		opt, _, err := BuildOptimizer(req)
		if err != nil {
			t.Errorf("%s: build: %v", tc.body, err)
			continue
		}
		if opt.Method() != tc.want {
			t.Errorf("%s: method %v, want %v", tc.body, opt.Method(), tc.want)
		}
	}
}
