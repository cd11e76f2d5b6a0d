package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/acquisition"
	"repro/internal/forest"
	"repro/internal/lowlevel"
	"repro/internal/telemetry"
)

// PriorObservation is one historical measurement used for warm starting.
type PriorObservation struct {
	// Features is the candidate's instance-space encoding (must use the
	// same encoding as the target).
	Features []float64
	// Metrics is the low-level vector collected during the historical run.
	Metrics lowlevel.Vector
	// Value is the historical objective value (must be positive).
	Value float64
}

// searchAugmented is Arrow: Bayesian optimization whose surrogate sees
// not just the instance space but the low-level performance metrics of
// every VM measured so far (Algorithm 2 in the paper).
//
// The surrogate is trained on ordered pairs of measured VMs: the feature
// row [features(src) || lowlevel(src) || features(dst)] has target y(dst).
// Predicting an unmeasured candidate averages the model output over all
// measured source VMs — "what does the workload's behaviour on src say
// about its performance on dst?" — which is how the model exploits
// low-level information about VMs the workload has never run on.
func (o *optimizer) searchAugmented(st *searchState, rng *rand.Rand) (*Result, error) {
	// Batch planning during the design phase reads ahead in the design
	// plan; runAugmented swaps in the model-backed planner.
	if ph, ok := st.target.(PlanHookSetter); ok {
		ph.SetPlanHook(func(pending []PendingPoint, extra int) []int {
			return st.readAhead(st.designPlan, pendingSet(pending), extra)
		})
	}

	if err := st.runInitialDesign(o.cfg.Design, rng); err != nil {
		return st.abort(err)
	}
	return o.runAugmented(st, rng)
}

// runAugmented runs the augmented loop on an already seeded state until
// the stopping rule fires, MaxMeasurements observations exist or the
// catalog runs out; the stopping rule may fire once one more than the
// seeded observations exist. Hybrid BO hands it a state seeded by Naive
// BO.
func (o *optimizer) runAugmented(st *searchState, rng *rand.Rand) (*Result, error) {
	minObs := len(st.obs) + 1
	maxMeas := st.budget(o.cfg.MaxMeasurements)

	// One tree seed for the whole search, drawn up front: per-tree row
	// sampling is a pure function of (seed, unit ids), so a stable seed is
	// what lets forest.Refit carry unchanged trees across iterations. A
	// fresh seed per iteration would reshuffle every tree's row set and
	// force a full re-grow each time.
	treeSeed := rng.Int63()

	if ph, ok := st.target.(PlanHookSetter); ok {
		p := &augPlanner{o: o, st: st, treeSeed: treeSeed, minObs: minObs, maxMeas: maxMeas}
		ph.SetPlanHook(p.plan)
	}

	for len(st.obs) < maxMeas {
		remaining := st.unmeasured()
		if len(remaining) == 0 {
			break
		}
		if len(st.obs) < 2 {
			// Design failures can leave too few observations for the
			// pairwise surrogate: extend the design with the next
			// quasi-random pick instead of failing the search.
			idx := st.designReplacement(rng)
			if idx < 0 {
				break
			}
			if _, err := st.measure(idx, 0, true); err != nil {
				return st.abort(err)
			}
			continue
		}
		var next int
		var predicted float64
		if d, ok := st.scriptedDecision(); ok {
			// Resumed replay: restore the recorded selection instead of
			// refitting the pairwise surrogate.
			next, predicted = d.Index, d.aux()
		} else {
			var err error
			next, predicted, _, err = o.selectByDelta(st, remaining, treeSeed)
			if err != nil {
				return st.abort(err)
			}
			st.recordDecision(next, 0, predicted)
		}
		if o.deltaStops(st, predicted, len(st.obs), minObs) {
			return st.stopEarly(predicted, o.cfg.DeltaThreshold*st.bestVal,
				fmt.Sprintf("best predicted %.4g exceeds %.2f x incumbent %.4g", predicted, o.cfg.DeltaThreshold, st.bestVal))
		}
		score := 0.0
		if st.hasIncumbent() {
			var err error
			score, err = acquisition.Delta(predicted, st.bestVal)
			if err != nil {
				return st.abort(err)
			}
		}
		st.emitSelected(next, score, predicted)
		if _, err := st.measure(next, score, false); err != nil {
			return st.abort(err)
		}
	}
	return st.finish("search space exhausted")
}

// stops is Prediction Delta's stopping rule, shared by the loop and its
// planner: once observed (real plus fantasized) measurements reach
// minObs, stop when even the most promising unmeasured VM is predicted
// worse than theta x incumbent — nothing left is worth paying for. With
// a time SLO the rule only fires once something feasible exists.
func (o *optimizer) deltaStops(st *searchState, predicted float64, observed, minObs int) bool {
	return o.cfg.DeltaThreshold > 0 && observed >= minObs && st.hasIncumbent() &&
		predicted > o.cfg.DeltaThreshold*st.bestVal
}

// selectByDelta fits the pairwise Extra-Trees surrogate and returns the
// unmeasured candidate with the smallest predicted objective, plus that
// prediction and its predicted execution time (1 without an SLO). Under a
// time SLO a second pairwise model predicts execution time: candidates
// predicted feasible are ranked by predicted objective; if none are, the
// candidate predicted fastest is chosen to hunt for feasibility. The
// batch planner calls it too, for its picks and — with remaining holding
// one index — to impute a pending point.
func (o *optimizer) selectByDelta(st *searchState, remaining []int, treeSeed int64) (next int, predicted, predTime float64, err error) {
	model, err := o.fitPairModel(st, treeSeed)
	if err != nil {
		return 0, 0, 0, err
	}
	var timeModel *forest.Regressor
	if o.cfg.MaxTimeSLO > 0 {
		timeModel, err = o.fitPairModelFor(st, treeSeed+1, pairTargetTime, false)
		if err != nil {
			return 0, 0, 0, err
		}
	}

	// Score every remaining candidate in one batched pass over the query
	// rows [src || lowlevel(src) || candidate]: the cached source halves
	// and the candidate halves serve both the objective and the time model
	// (their feature space is identical). Each candidate's per-source
	// predictions are averaged in log space, matching the paper's
	// "Surrogate Model Update" design of pooling every (src -> dst)
	// estimate.
	cache := o.pairs(st)
	srcs, dsts := cache.queryHalves(st, remaining)
	cache.rawPreds, err = model.PredictPairs(srcs, dsts, cache.rawPreds)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: surrogate prediction: %w", err)
	}
	cache.objMeans = reduceMeans(cache.objMeans, cache.rawPreds, len(remaining), len(st.obs))
	preds := cache.objMeans
	var predTimes []float64
	if timeModel != nil {
		cache.rawPreds, err = timeModel.PredictPairs(srcs, dsts, cache.rawPreds)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("core: surrogate time prediction: %w", err)
		}
		cache.timeMeans = reduceMeans(cache.timeMeans, cache.rawPreds, len(remaining), len(st.obs))
		predTimes = cache.timeMeans
	}

	next, predicted, predTime = -1, math.Inf(1), 1
	fallback, fallbackTime, fallbackPred := -1, math.Inf(1), math.Inf(1)
	for i, idx := range remaining {
		pred := preds[i]
		if st.tracer != nil {
			aux := 0.0
			if predTimes != nil {
				aux = predTimes[i]
			}
			st.emit(telemetry.Event{
				Kind:      telemetry.KindCandidateScored,
				Step:      len(st.obs),
				Candidate: idx,
				Name:      st.target.Name(idx),
				Value:     pred,
				Aux:       aux,
			})
		}
		t := 1.0
		if predTimes != nil {
			t = predTimes[i]
			if t < fallbackTime {
				fallback, fallbackTime, fallbackPred = idx, t, pred
			}
			if t > o.cfg.MaxTimeSLO {
				continue // predicted to violate the SLO
			}
		}
		if pred < predicted {
			next, predicted, predTime = idx, pred, t
		}
	}
	if next == -1 {
		// Every remaining candidate is predicted infeasible: measure the
		// one predicted fastest; its predicted objective keeps the
		// stopping rule from firing spuriously.
		next, predicted, predTime = fallback, fallbackPred, fallbackTime
	}
	return next, predicted, predTime, nil
}

// fitPairModel builds the training set of all ordered measured pairs and
// fits the Extra-Trees regressor. Targets are modeled in log space: the
// response surface is multiplicative (thrash factors, speed ratios) and
// averaging source predictions in log space takes a geometric mean, which
// is robust to one source predicting a blow-up.
func (o *optimizer) fitPairModel(st *searchState, treeSeed int64) (*forest.Regressor, error) {
	return o.fitPairModelFor(st, treeSeed, pairTargetObjective, true)
}

// fitPairModelFor fits the Extra-Trees regressor on the cached pairwise
// training set for the selected target (objective value or execution time,
// both modeled in log space). Warm-start history carries objective values
// only, so it contributes rows only when the target is the objective
// (withHistory).
func (o *optimizer) fitPairModelFor(st *searchState, treeSeed int64, target pairTarget, withHistory bool) (*forest.Regressor, error) {
	if len(st.obs) < 2 {
		return nil, fmt.Errorf("core: pairwise surrogate needs >= 2 observations, have %d: %w", len(st.obs), ErrBadConfig)
	}
	cache := o.pairs(st)
	cache.sync(st)
	xs, ys, units := cache.trainingSet(target, withHistory)
	cfg := o.cfg.forest
	cfg.Seed = treeSeed
	var prev *forest.Regressor
	if !o.cfg.fullRefit {
		if target == pairTargetTime {
			prev = cache.prevTime
		} else {
			prev = cache.prevObj
		}
	}
	var fitT0 time.Time
	if st.tracer != nil {
		fitT0 = time.Now()
	}
	model, info, err := forest.Refit(prev, cfg, xs, ys, units)
	if err != nil {
		return nil, fmt.Errorf("core: fitting Extra-Trees surrogate: %w", err)
	}
	if target == pairTargetTime {
		cache.prevTime = model
	} else {
		cache.prevObj = model
	}
	name := "forest"
	if target == pairTargetTime {
		name = "forest-time"
	}
	st.emitFit(name, len(xs), fitT0, info.Incremental, info.ReusedTrees)
	return model, nil
}

// pairs returns the state's pair-row cache, building it (and the
// warm-start pairs that teach the src->dst transfer structure before the
// current search has enough of its own observations) on first use.
func (o *optimizer) pairs(st *searchState) *pairCache {
	if st.pairs == nil {
		st.pairs = newPairCache(st.target.NumCandidates(), len(st.features[0]), o.cfg.DisableLowLevel)
		st.pairs.addWarm(o.cfg.WarmStart)
	}
	return st.pairs
}

// FeatureImportance is one entry of the surrogate explanation.
type FeatureImportance struct {
	// Name identifies the pair-row column: "src:f<i>" and "dst:f<i>" for
	// instance features, "src:<metric>" for low-level metrics.
	Name string
	// Fraction is the share of ensemble split nodes using this column.
	Fraction float64
}

// ExplainSurrogate refits the pairwise surrogate c's search fits on a
// finished search and reports which columns its trees split on — a cheap
// view of whether the model leans on the low-level metrics (Section
// IV-A's feature-selection discussion). c's method must have the
// surrogate (Augmented or Hybrid BO); the result must come from a search
// over target.
func ExplainSurrogate(c Config, target Target, res *Result) ([]FeatureImportance, error) {
	opt, err := New(c)
	if err != nil {
		return nil, err
	}
	o := opt.(*optimizer)
	if reads[o.cfg.Method]&readsPairs == 0 {
		return nil, fmt.Errorf("core: %v has no pairwise surrogate: %w", o.cfg.Method, ErrBadConfig)
	}
	st, err := newSearchState(target, res.Objective)
	if err != nil {
		return nil, err
	}
	for _, obs := range res.Observations {
		if obs.Index < 0 || obs.Index >= len(st.features) {
			return nil, fmt.Errorf("core: observation index %d outside target: %w", obs.Index, ErrBadConfig)
		}
		if st.measured[obs.Index] {
			return nil, fmt.Errorf("core: observation index %d listed twice: %w", obs.Index, ErrBadConfig)
		}
		st.measured[obs.Index] = true
		st.obs = append(st.obs, obs)
	}
	model, err := o.fitPairModel(st, o.cfg.Seed)
	if err != nil {
		return nil, err
	}
	numFeat := len(st.features[0])
	names := make([]string, 0, 2*numFeat+int(lowlevel.NumMetrics))
	for i := 0; i < numFeat; i++ {
		names = append(names, fmt.Sprintf("src:f%d", i))
	}
	for _, m := range lowlevel.Names() {
		names = append(names, "src:"+m)
	}
	for i := 0; i < numFeat; i++ {
		names = append(names, fmt.Sprintf("dst:f%d", i))
	}
	imps := model.FeatureImportance()
	if len(imps) != len(names) {
		return nil, fmt.Errorf("core: importance length %d, want %d", len(imps), len(names))
	}
	out := make([]FeatureImportance, len(names))
	for i := range names {
		out[i] = FeatureImportance{Name: names[i], Fraction: imps[i]}
	}
	return out, nil
}

// appendPairRow appends the augmented feature row
// [features(src) || lowlevel(src) || features(dst)] to dst and returns the
// extended slice. Callers provide the destination (a cache slab or a
// reusable scratch row), so assembling a row allocates nothing.
func appendPairRow(dst, srcFeat []float64, srcMetrics *lowlevel.Vector, dstFeat []float64) []float64 {
	dst = append(dst, srcFeat...)
	dst = append(dst, srcMetrics[:]...)
	return append(dst, dstFeat...)
}
