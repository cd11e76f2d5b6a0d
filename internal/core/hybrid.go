package core

import (
	"math/rand"

	"repro/internal/telemetry"
)

// searchHybrid is the combination method of Section V-B: Naive BO picks
// the first measurements (it has no slow start), then Augmented BO takes
// over with every observation collected so far; Figure 9 shows it
// dominating Naive BO everywhere. It has no loop of its own: the opening
// phase is runNaive, the closing phase runAugmented, each with its own
// batch planner, both configured by the one Config.
func (o *optimizer) searchHybrid(st *searchState, rng *rand.Rand) (*Result, error) {
	// Phase 1 is Naive BO's own run — design, plan hook and EI loop —
	// with no stopping rule (a hybrid's canonical EIStopFraction is zero)
	// and its budget the handover point, or the search's budget when
	// that is smaller, so its planner stops where its predictions would
	// stop matching the loop. It returns a result only on an abort.
	switchAt := o.cfg.SwitchAfter
	if o.cfg.MaxMeasurements > 0 {
		switchAt = min(switchAt, o.cfg.MaxMeasurements)
	}
	if res, err := o.runNaive(st, rng, switchAt); res != nil {
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
	return o.runAugmented(st, rng)
}
