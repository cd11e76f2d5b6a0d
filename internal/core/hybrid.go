package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/telemetry"
)

// HybridBOConfig configures the combination method of Section V-B: Naive
// BO picks the first measurements (it has no slow start), then Augmented
// BO takes over with every observation collected so far.
type HybridBOConfig struct {
	// Naive configures the opening phase, which runs Naive BO's own
	// search loop. Its stopping rule, MinObservations and
	// MaxMeasurements are ignored — the handover point is SwitchAfter.
	Naive NaiveBOConfig
	// Augmented configures the closing phase (and the overall stopping
	// rule).
	Augmented AugmentedBOConfig
	// SwitchAfter is the number of measurements (including the initial
	// design) after which Augmented BO takes over. Zero means
	// DefaultSwitchAfter.
	SwitchAfter int
	// Tracer receives the search's event stream (see internal/telemetry),
	// covering both phases; phase Tracer fields are ignored. Nil disables
	// tracing at zero cost.
	Tracer telemetry.Tracer
}

// DefaultSwitchAfter hands over after the initial design plus one EI-guided
// measurement — the region where Figure 9 shows Naive BO ahead.
const DefaultSwitchAfter = 4

// HybridBO combines Naive BO's strong start with Augmented BO's strong
// finish; Figure 9 shows it dominating Naive BO everywhere. It has no
// loop of its own: the opening phase is NaiveBO's run, the closing phase
// AugmentedBO's continueSearch, each with its own batch planner.
type HybridBO struct {
	cfg       HybridBOConfig
	naive     *NaiveBO
	augmented *AugmentedBO
}

// Compile-time interface check.
var _ Optimizer = (*HybridBO)(nil)

// NewHybridBO validates the configuration and builds the optimizer.
func NewHybridBO(cfg HybridBOConfig) (*HybridBO, error) {
	if cfg.SwitchAfter == 0 {
		cfg.SwitchAfter = DefaultSwitchAfter
	}
	if cfg.SwitchAfter < 2 {
		return nil, fmt.Errorf("core: switch-after %d leaves the pairwise surrogate without data: %w", cfg.SwitchAfter, ErrBadConfig)
	}
	if cfg.Naive.Objective != cfg.Augmented.Objective {
		return nil, fmt.Errorf("core: phases optimize different objectives (%v vs %v): %w",
			cfg.Naive.Objective, cfg.Augmented.Objective, ErrBadConfig)
	}
	if cfg.Naive.MaxTimeSLO != cfg.Augmented.MaxTimeSLO {
		return nil, fmt.Errorf("core: phases disagree on the time SLO (%v vs %v): %w",
			cfg.Naive.MaxTimeSLO, cfg.Augmented.MaxTimeSLO, ErrBadConfig)
	}
	naive, err := NewNaiveBO(cfg.Naive)
	if err != nil {
		return nil, err
	}
	augmented, err := NewAugmentedBO(cfg.Augmented)
	if err != nil {
		return nil, err
	}
	return &HybridBO{cfg: cfg, naive: naive, augmented: augmented}, nil
}

// Name implements Optimizer.
func (h *HybridBO) Name() string { return "hybrid-bo" }

// Search implements Optimizer.
func (h *HybridBO) Search(target Target) (*Result, error) {
	st, err := newSearchState(target, h.cfg.Naive.Objective)
	if err != nil {
		return nil, err
	}
	st.sloTime = h.cfg.Naive.MaxTimeSLO
	st.setTracer(h.cfg.Tracer, h.Name())
	st.emitSearchStart()

	// Phase 1 is Naive BO's own run — design, plan hook and EI loop —
	// with its stopping rule out of reach and its budget the handover
	// point, so its planner stops where its predictions would stop
	// matching the loop. It returns a result only on an abort.
	rng := rand.New(rand.NewSource(h.cfg.Naive.Seed))
	if res, err := h.naive.run(st, rng, math.MaxInt, h.cfg.SwitchAfter); res != nil {
		return res, err
	}

	// Phase 2: Augmented BO finishes the search with the full history and
	// installs its own planner. The state's method label names every
	// result, so one surfacing from this phase is still a hybrid result.
	if st.tracer != nil {
		st.emit(telemetry.Event{
			Kind:      telemetry.KindPhase,
			Step:      len(st.obs),
			Candidate: -1,
			Detail:    "augmented",
		})
	}
	return h.augmented.continueSearch(st, len(st.obs)+1, rng)
}
