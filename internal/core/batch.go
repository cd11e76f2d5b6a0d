package core

import (
	"math"
	"math/rand"

	"repro/internal/forest"
	"repro/internal/gp"
)

// This file implements pending-point fantasization: the plan hooks the
// optimizers install on a batch-capable Target (see PlanHook in
// stepper.go) so a Stepper can emit k concurrent suggestions. The idea —
// Lynceus's lookahead planning and TrimTuner's cheap fantasized
// evaluations — is to impute an outcome for every suggestion still in
// flight, fit the surrogate as if those outcomes were real, and ask the
// unmodified acquisition what it would measure next. PR7's incremental
// refits make the imputed fits cheap: the GP extends cached Cholesky
// factors (rolled back with Fitter.Truncate) and the forest appends
// virtual pair rows to the pairCache slab (rolled back by truncation).
//
// Planning is strictly best-effort and side-effect-free: hooks run on
// the search-loop goroutine while the loop is parked in Measure, emit no
// trace events (the tracer is detached for the duration), never touch
// the search's RNG, and leave every piece of search state bit-identical
// to how they found it. A mispredicted fantasy costs the caller one
// wasted measurement at worst — it can never corrupt the search.

// pendingSet builds the exclusion set of candidate indices that already
// have an in-flight suggestion.
func pendingSet(pending []PendingPoint) map[int]bool {
	excluded := make(map[int]bool, len(pending))
	for _, pp := range pending {
		excluded[pp.Index] = true
	}
	return excluded
}

// unmeasuredExcluding returns the candidates still available for a
// fantasy pick: not measured, not quarantined, not already suggested.
func (s *searchState) unmeasuredExcluding(excluded map[int]bool) []int {
	var out []int
	for i, m := range s.measured {
		if !m && !s.quarantined[i] && !excluded[i] {
			out = append(out, i)
		}
	}
	return out
}

// planFromDesign predicts the search's next picks while it is still
// working through the initial design: the unconsumed design entries, in
// design order. (Design failures trigger max-min replacements the
// planner cannot foresee; a mispredicted entry is just speculation
// waste.)
func (s *searchState) planFromDesign(excluded map[int]bool, extra int) []int {
	var picks []int
	for _, idx := range s.designPlan {
		if extra <= 0 {
			break
		}
		if s.measured[idx] || s.quarantined[idx] || excluded[idx] {
			continue
		}
		picks = append(picks, idx)
		excluded[idx] = true
		extra--
	}
	return picks
}

// appendFantasyObs appends an imputed observation, updating the
// incumbent and fastest-time trackers exactly as measure() would so a
// fantasized acquisition pass sees a consistent state. Callers must
// save and restore obs length, bestIdx/bestVal, fastestIdx/fastestTime.
func (s *searchState) appendFantasyObs(idx int, val float64, out Outcome) {
	s.obs = append(s.obs, Observation{Index: idx, Value: val, Outcome: out})
	if s.feasible(out) && val < s.bestVal {
		s.bestVal, s.bestIdx = val, idx
	}
	if out.TimeSec < s.fastestTime {
		s.fastestTime, s.fastestIdx = out.TimeSec, idx
	}
}

// naivePlanner is NaiveBO's plan hook: posterior-mean imputation through
// the GP's cached Cholesky factors. The post-design fields are filled in
// by the search loop once the main loop starts; both writer and reader
// run on the loop goroutine.
type naivePlanner struct {
	n  *NaiveBO
	st *searchState

	ready   bool // main loop started; scaled/sc/minObs/maxMeas valid
	scaled  [][]float64
	sc      *gpScratch
	minObs  int
	maxMeas int
}

func (p *naivePlanner) plan(pending []PendingPoint, extra int) []int {
	st := p.st
	excluded := pendingSet(pending)
	if !p.ready {
		return st.planFromDesign(excluded, extra)
	}
	if budget := p.maxMeas - len(st.obs) - len(pending); extra > budget {
		extra = budget
	}
	if extra <= 0 || len(st.obs) == 0 {
		return nil
	}
	return p.n.fantasize(st, p.scaled, p.sc, pending, excluded, extra, p.minObs, p.maxMeas)
}

// fitObjectiveGP fits the objective surrogate on the current (possibly
// fantasy-extended) observation set, mirroring selectCandidate's
// training-set construction.
func (n *NaiveBO) fitObjectiveGP(st *searchState, scaled [][]float64, sc *gpScratch) (*gp.GP, error) {
	xs, ys := sc.xs[:0], sc.ys[:0]
	logSpace := !n.cfg.DisableLogObjective
	for _, obs := range st.obs {
		xs = append(xs, scaled[obs.Index])
		if logSpace {
			ys = append(ys, math.Log(obs.Value))
		} else {
			ys = append(ys, obs.Value)
		}
	}
	sc.xs, sc.ys = xs, ys
	model, _, err := n.fitSurrogate(sc, xs, ys)
	return model, err
}

// imputeNaive predicts candidate idx's objective value (and execution
// time under an SLO) from the current GP posterior mean. ok is false
// when a fit or prediction fails or produces an unusable value —
// planning simply stops there.
func (n *NaiveBO) imputeNaive(st *searchState, scaled [][]float64, sc *gpScratch, idx int) (val float64, out Outcome, ok bool) {
	model, err := n.fitObjectiveGP(st, scaled, sc)
	if err != nil {
		return 0, Outcome{}, false
	}
	mean, _, err := model.Predict(scaled[idx])
	if err != nil {
		return 0, Outcome{}, false
	}
	val = mean
	if !n.cfg.DisableLogObjective {
		val = math.Exp(mean)
	}
	if !(val > 0) || math.IsInf(val, 0) || math.IsNaN(val) {
		return 0, Outcome{}, false
	}
	out = Outcome{TimeSec: 1}
	if n.cfg.MaxTimeSLO > 0 {
		xs, ys := sc.xs[:0], sc.ys[:0]
		for _, obs := range st.obs {
			xs = append(xs, scaled[obs.Index])
			ys = append(ys, math.Log(obs.Outcome.TimeSec))
		}
		sc.xs, sc.ys = xs, ys
		tmodel, _, err := n.fitSurrogate(sc, xs, ys)
		if err != nil {
			return 0, Outcome{}, false
		}
		tmean, _, err := tmodel.Predict(scaled[idx])
		if err != nil {
			return 0, Outcome{}, false
		}
		t := math.Exp(tmean)
		if !(t > 0) || math.IsInf(t, 0) {
			return 0, Outcome{}, false
		}
		out.TimeSec = t
	}
	return val, out, true
}

// fantasize runs NaiveBO's speculative acquisition: absorb every pending
// suggestion as a fantasy observation (the caller's real outcome when it
// already arrived, the posterior mean otherwise), then repeatedly ask
// selectCandidate what it would measure next, fantasizing each pick in
// turn. All state — observations, incumbents, tracer, and the cached GP
// factors — is restored before returning.
func (n *NaiveBO) fantasize(st *searchState, scaled [][]float64, sc *gpScratch, pending []PendingPoint, excluded map[int]bool, extra, minObs, maxMeas int) (picks []int) {
	savedTracer := st.tracer
	st.tracer = nil
	savedObs := len(st.obs)
	savedBestIdx, savedBestVal := st.bestIdx, st.bestVal
	savedFastIdx, savedFastTime := st.fastestIdx, st.fastestTime
	defer func() {
		st.obs = st.obs[:savedObs]
		st.bestIdx, st.bestVal = savedBestIdx, savedBestVal
		st.fastestIdx, st.fastestTime = savedFastIdx, savedFastTime
		st.tracer = savedTracer
		if !n.cfg.DisableIncrementalRefit {
			for _, f := range sc.fitters {
				if f.Len() > savedObs && savedObs > 0 {
					_ = f.Truncate(savedObs)
				}
			}
		}
	}()

	for _, pp := range pending {
		if pp.Observed {
			if pp.Failed {
				continue // will quarantine on delivery; contributes nothing
			}
			val, err := pp.Outcome.Value(st.objective)
			if err != nil || val <= 0 || math.IsNaN(val) || math.IsInf(val, 0) {
				continue
			}
			st.appendFantasyObs(pp.Index, val, pp.Outcome)
			continue
		}
		val, out, ok := n.imputeNaive(st, scaled, sc, pp.Index)
		if !ok {
			return nil
		}
		st.appendFantasyObs(pp.Index, val, out)
	}

	// The fantasy RNG feeds only the entropy-search acquisition's
	// posterior sampling; the real search RNG must never advance during
	// planning, so a throwaway stream is derived from the seed and the
	// planning position (deterministic given the delivered history).
	sideRng := rand.New(rand.NewSource(n.cfg.Seed ^ (0x6c62272e07bb0142 + int64(len(st.obs)))))
	for len(picks) < extra && len(st.obs) < maxMeas {
		remaining := st.unmeasuredExcluding(excluded)
		if len(remaining) == 0 {
			break
		}
		next, _, maxEI, err := n.selectCandidate(st, scaled, remaining, sideRng, sc)
		if err != nil || next < 0 {
			break
		}
		if n.cfg.EIStopFraction > 0 && len(st.obs) >= minObs && st.hasIncumbent() &&
			maxEI < n.cfg.EIStopFraction*st.bestVal {
			break // the real loop would stop here; speculating past it is pure waste
		}
		val, out, ok := n.imputeNaive(st, scaled, sc, next)
		if !ok {
			break
		}
		picks = append(picks, next)
		excluded[next] = true
		st.appendFantasyObs(next, val, out)
	}
	return picks
}

// augPlanner is AugmentedBO's plan hook: virtual (real source -> fantasy
// destination) pair rows appended to the pairCache slab and rolled back
// by truncation. Installed by continueSearch, so it also serves the
// hybrid search's augmented phase.
type augPlanner struct {
	a        *AugmentedBO
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
		return st.planFromDesign(excluded, extra)
	}
	if budget := p.maxMeas - len(st.obs) - len(pending); extra > budget {
		extra = budget
	}
	if extra <= 0 {
		return nil
	}
	return p.a.fantasize(st, pending, excluded, extra, p.treeSeed, p.minObs, p.maxMeas)
}

// fantasize runs AugmentedBO's speculative acquisition. Fantasized
// destinations contribute (real source -> fantasy destination) training
// rows only — a fantasy has no low-level metric vector, so it is never
// a source — and predictions keep averaging over the real sources.
// Fantasy models chain from the cache's previous ensembles through a
// local head that is never written back, so the real search's
// incremental-refit lineage is untouched; the appended slab rows are
// truncated away before returning.
func (a *AugmentedBO) fantasize(st *searchState, pending []PendingPoint, excluded map[int]bool, extra int, treeSeed int64, minObs, maxMeas int) (picks []int) {
	savedTracer := st.tracer
	st.tracer = nil
	cache := a.pairs(st)
	// Append the rows of any real observations the cache has not seen —
	// the identical rows the next real fit would append, so doing it
	// early is invisible to the real path.
	cache.sync(st)
	mark := cache.mark()
	defer func() {
		cache.rollback(mark)
		st.tracer = savedTracer
	}()

	localObj, localTime := cache.prevObj, cache.prevTime
	fantasies := 0
	localBestVal := st.bestVal
	localHasInc := st.hasIncumbent()

	fit := func(target pairTarget, seed int64, withHistory bool, prev *forest.Regressor) (*forest.Regressor, error) {
		xs, ys, units := cache.trainingSet(target, withHistory)
		cfg := a.cfg.Forest
		cfg.Seed = seed
		if cfg.SampleRate == 0 {
			cfg.SampleRate = defaultPairSampleRate
		}
		if a.cfg.DisableIncrementalRefit {
			prev = nil
		}
		model, _, err := forest.Refit(prev, cfg, xs, ys, units)
		return model, err
	}
	predict := func(model *forest.Regressor, remaining []int) ([]float64, error) {
		srcs, dsts := cache.queryHalves(st, remaining)
		var err error
		cache.rawPreds, err = model.PredictPairs(srcs, dsts, cache.rawPreds)
		if err != nil {
			return nil, err
		}
		cache.objMeans = reduceMeans(cache.objMeans, cache.rawPreds, len(remaining), len(st.obs))
		return cache.objMeans, nil
	}
	predictTimes := func(model *forest.Regressor, remaining []int) ([]float64, error) {
		srcs, dsts := cache.queryHalves(st, remaining)
		var err error
		cache.rawPreds, err = model.PredictPairs(srcs, dsts, cache.rawPreds)
		if err != nil {
			return nil, err
		}
		cache.timeMeans = reduceMeans(cache.timeMeans, cache.rawPreds, len(remaining), len(st.obs))
		return cache.timeMeans, nil
	}
	addFantasy := func(idx int, val, timeSec float64) {
		dst := Observation{Index: idx, Value: val, Outcome: Outcome{TimeSec: timeSec}}
		dstObs := len(st.obs) + fantasies
		for j := range st.obs {
			cache.appendObsPair(st, &st.obs[j], &dst, j, dstObs)
		}
		fantasies++
		feasible := st.sloTime <= 0 || timeSec <= st.sloTime
		if feasible && val < localBestVal {
			localBestVal = val
			localHasInc = true
		}
	}
	// impute predicts one candidate's objective (and time under an SLO)
	// from models fitted on the current real+fantasy training rows.
	impute := func(idx int) (val, timeSec float64, ok bool) {
		model, err := fit(pairTargetObjective, treeSeed, true, localObj)
		if err != nil {
			return 0, 0, false
		}
		localObj = model
		preds, err := predict(model, []int{idx})
		if err != nil || !(preds[0] > 0) || math.IsInf(preds[0], 0) {
			return 0, 0, false
		}
		val, timeSec = preds[0], 1.0
		if a.cfg.MaxTimeSLO > 0 {
			tm, err := fit(pairTargetTime, treeSeed+1, false, localTime)
			if err != nil {
				return 0, 0, false
			}
			localTime = tm
			times, err := predictTimes(tm, []int{idx})
			if err != nil || !(times[0] > 0) || math.IsInf(times[0], 0) {
				return 0, 0, false
			}
			timeSec = times[0]
		}
		return val, timeSec, true
	}

	for _, pp := range pending {
		if pp.Observed {
			if pp.Failed {
				continue
			}
			val, err := pp.Outcome.Value(st.objective)
			if err != nil || val <= 0 || math.IsNaN(val) || math.IsInf(val, 0) {
				continue
			}
			addFantasy(pp.Index, val, pp.Outcome.TimeSec)
			continue
		}
		val, timeSec, ok := impute(pp.Index)
		if !ok {
			return nil
		}
		addFantasy(pp.Index, val, timeSec)
	}

	for len(picks) < extra && len(st.obs)+fantasies < maxMeas {
		remaining := st.unmeasuredExcluding(excluded)
		if len(remaining) == 0 {
			break
		}
		model, err := fit(pairTargetObjective, treeSeed, true, localObj)
		if err != nil {
			break
		}
		localObj = model
		var predTimes []float64
		if a.cfg.MaxTimeSLO > 0 {
			tm, terr := fit(pairTargetTime, treeSeed+1, false, localTime)
			if terr != nil {
				break
			}
			localTime = tm
			// Predict times first: predict() reuses rawPreds, so the
			// objective pass must come second... and timeMeans must be
			// copied out before objMeans overwrites rawPreds.
			predTimes, terr = predictTimes(tm, remaining)
			if terr != nil {
				break
			}
		}
		preds, err := predict(model, remaining)
		if err != nil {
			break
		}
		// Mirror selectByDelta: smallest predicted objective among
		// candidates predicted feasible, else the predicted-fastest.
		next, predicted := -1, math.Inf(1)
		fallback, fallbackTime, fallbackPred := -1, math.Inf(1), math.Inf(1)
		for i, idx := range remaining {
			pred := preds[i]
			if predTimes != nil {
				if predTimes[i] < fallbackTime {
					fallbackTime, fallback, fallbackPred = predTimes[i], idx, pred
				}
				if predTimes[i] > a.cfg.MaxTimeSLO {
					continue
				}
			}
			if pred < predicted {
				predicted, next = pred, idx
			}
		}
		nextTime := 1.0
		if next == -1 {
			next, predicted, nextTime = fallback, fallbackPred, fallbackTime
		} else if predTimes != nil {
			for i, idx := range remaining {
				if idx == next {
					nextTime = predTimes[i]
					break
				}
			}
		}
		if next < 0 || !(predicted > 0) || math.IsInf(predicted, 0) {
			break
		}
		if a.cfg.DeltaThreshold > 0 && len(st.obs)+fantasies >= minObs && localHasInc &&
			predicted > a.cfg.DeltaThreshold*localBestVal {
			break // the real loop would stop here
		}
		picks = append(picks, next)
		excluded[next] = true
		addFantasy(next, predicted, nextTime)
	}
	return picks
}

// randomPlanner is RandomSearch's plan hook: the search order is a fixed
// permutation, so planning is just reading ahead in it.
type randomPlanner struct {
	st      *searchState
	perm    []int
	maxMeas int
}

func (p *randomPlanner) plan(pending []PendingPoint, extra int) []int {
	excluded := pendingSet(pending)
	if budget := p.maxMeas - len(p.st.obs) - len(pending); extra > budget {
		extra = budget
	}
	var picks []int
	for _, idx := range p.perm {
		if extra <= 0 {
			break
		}
		if p.st.measured[idx] || p.st.quarantined[idx] || excluded[idx] {
			continue
		}
		picks = append(picks, idx)
		excluded[idx] = true
		extra--
	}
	return picks
}
