package core

import (
	"math/rand"

	"repro/internal/telemetry"
)

// RandomSearchConfig configures the random-search baseline.
type RandomSearchConfig struct {
	// Objective selects what to minimize. Required.
	Objective Objective
	// MaxMeasurements caps the search cost. Zero means the whole catalog.
	MaxMeasurements int
	// Seed drives the measurement order.
	Seed int64
	// Tracer receives the search's event stream (see internal/telemetry).
	// Nil disables tracing at zero cost.
	Tracer telemetry.Tracer
}

// RandomSearch measures candidates in a uniformly random order. It is not
// part of the paper's comparison but calibrates how much structure the BO
// methods actually exploit.
type RandomSearch struct {
	cfg RandomSearchConfig
}

// Compile-time interface check.
var _ Optimizer = (*RandomSearch)(nil)

// NewRandomSearch builds the baseline.
func NewRandomSearch(cfg RandomSearchConfig) (*RandomSearch, error) {
	return &RandomSearch{cfg: cfg}, nil
}

// Name implements Optimizer.
func (r *RandomSearch) Name() string { return "random-search" }

// Search implements Optimizer.
func (r *RandomSearch) Search(target Target) (*Result, error) {
	st, err := newSearchState(target, r.cfg.Objective)
	if err != nil {
		return nil, err
	}
	st.setTracer(r.cfg.Tracer, r.Name())
	st.emitSearchStart()
	maxMeas := r.cfg.MaxMeasurements
	if maxMeas == 0 || maxMeas > target.NumCandidates() {
		maxMeas = target.NumCandidates()
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	perm := rng.Perm(target.NumCandidates())
	// Batch planning for random search is just reading ahead in the
	// permutation, up to the measurement budget.
	if ph, ok := target.(PlanHookSetter); ok {
		ph.SetPlanHook(func(pending []PendingPoint, extra int) []int {
			return st.readAhead(perm, pendingSet(pending), min(extra, maxMeas-len(st.obs)-len(pending)))
		})
	}
	// Walk the whole permutation: a failed candidate is quarantined and
	// does not consume measurement budget, so later permutation entries
	// stand in for it until the budget or the catalog runs out.
	for _, idx := range perm {
		if len(st.obs) >= maxMeas {
			break
		}
		if _, err := st.measure(idx, 0, false); err != nil {
			return st.abort(err)
		}
	}
	return st.finish("measurement budget exhausted")
}
