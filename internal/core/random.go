package core

import "math/rand"

// searchRandom measures candidates in a uniformly random order. It is not
// part of the paper's comparison but calibrates how much structure the BO
// methods actually exploit.
func (o *optimizer) searchRandom(st *searchState, rng *rand.Rand) (*Result, error) {
	maxMeas := st.budget(o.cfg.MaxMeasurements)
	perm := rng.Perm(st.target.NumCandidates())
	// Batch planning for random search is just reading ahead in the
	// permutation, up to the measurement budget.
	if ph, ok := st.target.(PlanHookSetter); ok {
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
