package core

import (
	"math"
	"math/rand"
)

// This file implements pending-point fantasization: the plan hooks the
// optimizers install on a batch-capable Target (see PlanHook in
// stepper.go) so a Stepper can emit k concurrent suggestions. The idea —
// Lynceus's lookahead planning and TrimTuner's cheap fantasized
// evaluations — is to impute an outcome for every suggestion still in
// flight, fit the surrogate as if those outcomes were real, and ask the
// unmodified acquisition what it would measure next. The planners have no
// selection code of their own: each fantasy fit, imputation, pick and
// stop check goes through the search loop's own functions (selectCandidate
// and fitGP for Naive BO, selectByDelta for Augmented BO, and each
// method's stopping rule), so a fantasy asks exactly what the loop
// would ask. Incremental refits make the imputed fits cheap: the GP
// extends cached Cholesky factors (rolled back with Fitter.Truncate) and
// the forest appends virtual pair rows to the pairCache slab (rolled back
// by truncation).
//
// Planning is strictly best-effort and side-effect-free: hooks run on the
// NextBatch caller's goroutine while the Stepper holds the search loop
// parked in Measure, emit no trace events (the tracer is detached for
// the duration), never touch the search's RNG, and leave every piece of
// search state bit-identical to how they found it. A mispredicted fantasy
// costs the caller one wasted measurement at worst — it can never corrupt
// the search.

// pendingSet builds the exclusion set of candidate indices that already
// have an in-flight suggestion.
func pendingSet(pending []PendingPoint) map[int]bool {
	excluded := make(map[int]bool, len(pending))
	for _, pp := range pending {
		excluded[pp.Index] = true
	}
	return excluded
}

// readAhead predicts the next picks of a search that walks a fixed order
// — the initial design, or random search's permutation: the first extra
// entries not yet measured, quarantined or excluded, each then excluded.
// (Design failures trigger max-min replacements the planner cannot
// foresee; a mispredicted entry is just speculation waste.)
func (s *searchState) readAhead(order []int, excluded map[int]bool, extra int) []int {
	var picks []int
	for _, idx := range order {
		if len(picks) >= extra {
			break
		}
		if s.measured[idx] || s.quarantined[idx] || excluded[idx] {
			continue
		}
		picks = append(picks, idx)
		excluded[idx] = true
	}
	return picks
}

// beginFantasy detaches the tracer and snapshots the observation count
// and the incumbent and fastest-time trackers; the returned function
// restores all of them.
func (s *searchState) beginFantasy() (restore func()) {
	tracer, numObs := s.tracer, len(s.obs)
	bestIdx, bestVal := s.bestIdx, s.bestVal
	fastIdx, fastTime := s.fastestIdx, s.fastestTime
	s.tracer = nil
	return func() {
		s.obs = s.obs[:numObs]
		s.bestIdx, s.bestVal = bestIdx, bestVal
		s.fastestIdx, s.fastestTime = fastIdx, fastTime
		s.tracer = tracer
	}
}

// observedValue is the objective value a pending point the caller already
// observed contributes as a fantasy; ok is false for a failure (it will
// quarantine on delivery) or an unusable outcome, which contribute
// nothing.
func (s *searchState) observedValue(pp PendingPoint) (val float64, ok bool) {
	if pp.Failed {
		return 0, false
	}
	val, err := pp.Outcome.Value(s.objective)
	return val, err == nil && finitePositive(val)
}

// finitePositive reports whether v is usable as an imputed objective value
// or execution time.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// naivePlanner is Naive BO's plan hook: posterior-mean imputation through
// the GP's cached Cholesky factors. The post-design fields are filled in
// by the search loop once the main loop starts and read by the hook,
// which only runs while the loop is held parked.
type naivePlanner struct {
	o  *optimizer
	st *searchState

	ready   bool // main loop started; sc/minObs/maxMeas valid
	sc      *gpScratch
	minObs  int
	maxMeas int
}

func (p *naivePlanner) plan(pending []PendingPoint, extra int) []int {
	st := p.st
	excluded := pendingSet(pending)
	if !p.ready {
		return st.readAhead(st.designPlan, excluded, extra)
	}
	extra = min(extra, p.maxMeas-len(st.obs)-len(pending))
	if extra <= 0 || len(st.obs) == 0 {
		return nil
	}
	return p.fantasize(pending, excluded, extra)
}

// impute predicts candidate idx's objective value (and execution time
// under an SLO) as the posterior mean of GPs fitted by fitGP. ok is false
// when a fit or prediction fails or produces an unusable value — planning
// simply stops there.
func (p *naivePlanner) impute(idx int) (val float64, out Outcome, ok bool) {
	val, ok = p.posteriorMean(idx, false)
	out = Outcome{TimeSec: 1}
	if ok && p.o.cfg.MaxTimeSLO > 0 {
		out.TimeSec, ok = p.posteriorMean(idx, true)
	}
	return val, out, ok
}

// posteriorMean fits the objective (or time) GP on the current, possibly
// fantasy-extended, observations and returns its mean at idx in
// objective (or time) units.
func (p *naivePlanner) posteriorMean(idx int, timeModel bool) (float64, bool) {
	model, err := p.o.fitGP(p.st, p.sc, timeModel)
	if err != nil {
		return 0, false
	}
	mean, _, err := model.Predict(p.st.scaled[idx])
	if err != nil {
		return 0, false
	}
	mean = math.Exp(mean)
	return mean, finitePositive(mean)
}

// fantasize runs Naive BO's speculative acquisition: absorb every pending
// suggestion as a fantasy observation (the caller's real outcome when it
// already arrived, the posterior mean otherwise), then repeatedly ask
// selectCandidate what it would measure next, fantasizing each pick in
// turn until the stopping rule would fire. All state — observations,
// incumbents, tracer, and the cached GP factors — is restored before
// returning.
func (p *naivePlanner) fantasize(pending []PendingPoint, excluded map[int]bool, extra int) (picks []int) {
	st, o := p.st, p.o
	savedObs := len(st.obs)
	restore := st.beginFantasy()
	defer func() {
		restore()
		if !o.cfg.fullRefit && savedObs > 0 {
			for _, f := range p.sc.fitters {
				if f.Len() > savedObs {
					_ = f.Truncate(savedObs)
				}
			}
		}
	}()
	add := func(idx int, val float64, out Outcome) {
		st.obs = append(st.obs, Observation{Index: idx, Value: val, Outcome: out})
		st.noteOutcome(idx, val, out)
	}

	for _, pp := range pending {
		if pp.Observed {
			if val, ok := st.observedValue(pp); ok {
				add(pp.Index, val, pp.Outcome)
			}
			continue
		}
		val, out, ok := p.impute(pp.Index)
		if !ok {
			return nil
		}
		add(pp.Index, val, out)
	}

	// The fantasy RNG feeds only the entropy-search acquisition's
	// posterior sampling; the real search RNG must never advance during
	// planning, so a throwaway stream is derived from the seed and the
	// planning position (deterministic given the delivered history).
	sideRng := rand.New(rand.NewSource(o.cfg.Seed ^ (0x6c62272e07bb0142 + int64(len(st.obs)))))
	for len(picks) < extra && len(st.obs) < p.maxMeas {
		remaining := st.unmeasuredExcluding(excluded)
		if len(remaining) == 0 {
			break
		}
		next, _, maxEI, err := o.selectCandidate(st, remaining, sideRng, p.sc)
		if err != nil || next < 0 || o.eiStops(st, maxEI, p.minObs) {
			break
		}
		val, out, ok := p.impute(next)
		if !ok {
			break
		}
		picks = append(picks, next)
		excluded[next] = true
		add(next, val, out)
	}
	return picks
}

// augPlanner is Augmented BO's plan hook: virtual (real source -> fantasy
// destination) pair rows appended to the pairCache slab and rolled back
// by truncation. Installed by runAugmented, so it also serves the
// hybrid search's augmented phase.
type augPlanner struct {
	o        *optimizer
	st       *searchState
	treeSeed int64
	minObs   int
	maxMeas  int
}

func (p *augPlanner) plan(pending []PendingPoint, extra int) []int {
	st := p.st
	excluded := pendingSet(pending)
	if len(st.obs) < 2 {
		// The loop is still topping up the design (or replacing design
		// failures via max-min picks the planner cannot predict).
		return st.readAhead(st.designPlan, excluded, extra)
	}
	extra = min(extra, p.maxMeas-len(st.obs)-len(pending))
	if extra <= 0 {
		return nil
	}
	return p.fantasize(pending, excluded, extra)
}

// fantasize runs Augmented BO's speculative acquisition through
// selectByDelta: a pending point is imputed by asking it about that one
// candidate, and each pick is its answer over the rest. Fantasized
// destinations contribute (real source -> fantasy destination) training
// rows only — a fantasy has no low-level metric vector, so it is never a
// source, and st.obs never grows — and predictions keep averaging over
// the real sources. Fantasy fits chain through the cache's model heads
// like real refits; the heads, the appended slab rows and the incumbent
// are restored before returning, so the real search's incremental-refit
// lineage is untouched.
func (p *augPlanner) fantasize(pending []PendingPoint, excluded map[int]bool, extra int) (picks []int) {
	st, o := p.st, p.o
	cache := o.pairs(st)
	// Append the rows of any real observations the cache has not seen —
	// the identical rows the next real fit would append, so doing it
	// early is invisible to the real path.
	cache.sync(st)
	mark, prevObj, prevTime := cache.mark(), cache.prevObj, cache.prevTime
	restore := st.beginFantasy()
	defer func() {
		cache.rollback(mark)
		cache.prevObj, cache.prevTime = prevObj, prevTime
		restore()
	}()
	fantasies := 0
	add := func(idx int, val, timeSec float64) {
		dst := Observation{Index: idx, Value: val, Outcome: Outcome{TimeSec: timeSec}}
		for j := range st.obs {
			cache.appendObsPair(st, &st.obs[j], &dst, j, len(st.obs)+fantasies)
		}
		fantasies++
		st.noteOutcome(idx, val, dst.Outcome)
	}

	for _, pp := range pending {
		if pp.Observed {
			if val, ok := st.observedValue(pp); ok {
				add(pp.Index, val, pp.Outcome.TimeSec)
			}
			continue
		}
		_, val, timeSec, err := o.selectByDelta(st, []int{pp.Index}, p.treeSeed)
		if err != nil || !finitePositive(val) || !finitePositive(timeSec) {
			return nil
		}
		add(pp.Index, val, timeSec)
	}

	for len(picks) < extra && len(st.obs)+fantasies < p.maxMeas {
		remaining := st.unmeasuredExcluding(excluded)
		if len(remaining) == 0 {
			break
		}
		next, predicted, timeSec, err := o.selectByDelta(st, remaining, p.treeSeed)
		if err != nil || next < 0 || !finitePositive(predicted) ||
			o.deltaStops(st, predicted, len(st.obs)+fantasies, p.minObs) {
			break
		}
		picks = append(picks, next)
		excluded[next] = true
		add(next, predicted, timeSec)
	}
	return picks
}
