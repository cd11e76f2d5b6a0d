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

// AugmentedBOConfig configures Arrow's low-level augmented optimizer.
type AugmentedBOConfig struct {
	// Objective selects what to minimize. Required.
	Objective Objective
	// DeltaThreshold is the Prediction-Delta stopping threshold theta:
	// the search stops once every unmeasured VM's predicted objective
	// exceeds theta x the incumbent, i.e. no VM is predicted to be worth
	// exploring. The paper sweeps theta in [0.9, 1.3] and recommends 1.1
	// (Section VI-A). Zero means DefaultDeltaThreshold; negative disables
	// early stopping.
	DeltaThreshold float64
	// MaxTimeSLO, when positive, constrains the search to VMs whose
	// execution time stays within the SLO (CherryPick's constrained
	// formulation): a second pairwise model predicts execution time,
	// candidates predicted to violate the SLO are deprioritized, and only
	// SLO-meeting observations can become the incumbent.
	MaxTimeSLO float64
	// MinObservations is the smallest number of measurements before the
	// stopping rule may fire. Zero means the design size plus one.
	MinObservations int
	// MaxMeasurements caps the search cost. Zero means the whole catalog.
	MaxMeasurements int
	// Forest configures the Extra-Trees surrogate. Zero values use the
	// forest package defaults (100 trees, sqrt(d) split candidates).
	Forest forest.Config
	// Design configures the initial sample.
	Design DesignConfig
	// Seed drives the initial design and the tree randomization.
	Seed int64
	// DisableLowLevel is the ablation switch: the pairwise surrogate is
	// trained on instance features only, zeroing out the low-level
	// metrics. Used to quantify how much of Arrow's advantage comes from
	// the low-level augmentation versus the tree surrogate + pairwise
	// encoding alone.
	DisableLowLevel bool
	// DisableIncrementalRefit forces every surrogate fit to re-grow the
	// whole ensemble from scratch instead of reusing trees whose sampled
	// rows did not change. The search itself is bit-identical either way
	// (forest.Refit guarantees it); the switch exists to measure the
	// speedup and as an escape hatch.
	DisableIncrementalRefit bool
	// WarmStart seeds the surrogate with observations from a previous
	// run of a *related* workload on the same candidate catalog (the
	// paper's stated future work: "augment Bayesian Optimizer with
	// historical performance data"). Prior observations contribute
	// (src -> dst) training pairs among themselves but are never used as
	// prediction sources, so stale history can bias early picks at worst
	// — it cannot fabricate measurements.
	WarmStart []PriorObservation
	// Tracer receives the search's event stream (see internal/telemetry).
	// Nil disables tracing at zero cost.
	Tracer telemetry.Tracer
}

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

// DefaultDeltaThreshold is the paper's recommended Prediction-Delta
// stopping threshold.
const DefaultDeltaThreshold = 1.1

// defaultPairSampleRate is the per-tree observation-unit keep probability
// of the pairwise surrogate when Forest.SampleRate is unset. Each tree
// trains on the pair rows whose source and destination units it keeps
// (~49% of rows), so measuring one more VM re-grows only the ~70% of
// trees that keep the new unit — the lever behind incremental refits.
// Set Forest.SampleRate to 1 for the classic every-tree-sees-everything
// ensemble.
const defaultPairSampleRate = 0.7

// AugmentedBO is Arrow: Bayesian optimization whose surrogate sees not
// just the instance space but the low-level performance metrics of every
// VM measured so far (Algorithm 2 in the paper).
//
// The surrogate is trained on ordered pairs of measured VMs: the feature
// row [features(src) || lowlevel(src) || features(dst)] has target y(dst).
// Predicting an unmeasured candidate averages the model output over all
// measured source VMs — "what does the workload's behaviour on src say
// about its performance on dst?" — which is how the model exploits
// low-level information about VMs the workload has never run on.
type AugmentedBO struct {
	cfg AugmentedBOConfig
}

// Compile-time interface check.
var _ Optimizer = (*AugmentedBO)(nil)

// NewAugmentedBO validates the configuration and builds the optimizer.
func NewAugmentedBO(cfg AugmentedBOConfig) (*AugmentedBO, error) {
	if cfg.DeltaThreshold == 0 {
		cfg.DeltaThreshold = DefaultDeltaThreshold
	}
	if cfg.DeltaThreshold > 0 && cfg.DeltaThreshold < 0.5 {
		return nil, fmt.Errorf("core: delta threshold %v is below any sensible value: %w", cfg.DeltaThreshold, ErrBadConfig)
	}
	if cfg.MaxTimeSLO < 0 || math.IsNaN(cfg.MaxTimeSLO) || math.IsInf(cfg.MaxTimeSLO, 0) {
		return nil, fmt.Errorf("core: time SLO %v invalid: %w", cfg.MaxTimeSLO, ErrBadConfig)
	}
	for i, prior := range cfg.WarmStart {
		if len(prior.Features) == 0 {
			return nil, fmt.Errorf("core: warm-start observation %d has no features: %w", i, ErrBadConfig)
		}
		if prior.Value <= 0 || math.IsNaN(prior.Value) || math.IsInf(prior.Value, 0) {
			return nil, fmt.Errorf("core: warm-start observation %d has invalid value %v: %w", i, prior.Value, ErrBadConfig)
		}
		if err := prior.Metrics.Validate(); err != nil {
			return nil, fmt.Errorf("core: warm-start observation %d: %w", i, err)
		}
	}
	return &AugmentedBO{cfg: cfg}, nil
}

// Name implements Optimizer.
func (a *AugmentedBO) Name() string { return "augmented-bo" }

// Search implements Optimizer.
func (a *AugmentedBO) Search(target Target) (*Result, error) {
	st, err := newSearchState(target, a.cfg.Objective)
	if err != nil {
		return nil, err
	}
	st.sloTime = a.cfg.MaxTimeSLO
	st.setTracer(a.cfg.Tracer, a.Name())
	st.emitSearchStart()
	rng := rand.New(rand.NewSource(a.cfg.Seed))

	// Batch planning during the design phase reads ahead in the design
	// plan; continueSearch swaps in the model-backed planner.
	if ph, ok := target.(PlanHookSetter); ok {
		ph.SetPlanHook(func(pending []PendingPoint, extra int) []int {
			return st.planFromDesign(pendingSet(pending), extra)
		})
	}

	if err := st.runInitialDesign(a.cfg.Design, rng); err != nil {
		return st.abort(a.Name(), err)
	}
	return a.continueSearch(st, len(st.obs)+1, rng)
}

// continueSearch runs the augmented loop on an already seeded state. It is
// shared with HybridBO, which hands over a state seeded by Naive BO.
func (a *AugmentedBO) continueSearch(st *searchState, defaultMinObs int, rng *rand.Rand) (*Result, error) {
	minObs := a.cfg.MinObservations
	if minObs == 0 {
		minObs = defaultMinObs
	}
	maxMeas := a.cfg.MaxMeasurements
	if maxMeas == 0 || maxMeas > st.target.NumCandidates() {
		maxMeas = st.target.NumCandidates()
	}

	// One tree seed for the whole search, drawn up front: per-tree row
	// sampling is a pure function of (seed, unit ids), so a stable seed is
	// what lets forest.Refit carry unchanged trees across iterations. A
	// fresh seed per iteration would reshuffle every tree's row set and
	// force a full re-grow each time.
	treeSeed := rng.Int63()

	if ph, ok := st.target.(PlanHookSetter); ok {
		p := &augPlanner{a: a, st: st, treeSeed: treeSeed, minObs: minObs, maxMeas: maxMeas}
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
				return st.abort(a.Name(), err)
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
			next, predicted, err = a.selectByDelta(st, remaining, treeSeed)
			if err != nil {
				return st.abort(a.Name(), err)
			}
			st.recordDecision(next, 0, predicted)
		}
		// Prediction Delta doubles as the stopping criterion: if even the
		// most promising unmeasured VM is predicted worse than
		// theta x incumbent, there is nothing left worth paying for. With
		// a time SLO the rule only fires once something feasible exists.
		if a.cfg.DeltaThreshold > 0 && len(st.obs) >= minObs && st.hasIncumbent() &&
			predicted > a.cfg.DeltaThreshold*st.bestVal {
			reason := fmt.Sprintf("best predicted %.4g exceeds %.2f x incumbent %.4g", predicted, a.cfg.DeltaThreshold, st.bestVal)
			if st.tracer != nil {
				st.emit(telemetry.Event{
					Kind:      telemetry.KindStopRule,
					Step:      len(st.obs),
					Candidate: -1,
					Value:     predicted,
					Aux:       a.cfg.DeltaThreshold * st.bestVal,
					Detail:    reason,
				})
			}
			return st.result(a.Name(), true, reason), nil
		}
		score := 0.0
		if st.hasIncumbent() {
			var err error
			score, err = acquisition.Delta(predicted, st.bestVal)
			if err != nil {
				return st.abort(a.Name(), err)
			}
		}
		st.emitSelected(next, score, predicted)
		if _, err := st.measure(next, score, false); err != nil {
			return st.abort(a.Name(), err)
		}
	}
	return st.finish(a.Name(), false, "search space exhausted")
}

// selectByDelta fits the pairwise Extra-Trees surrogate and returns the
// unmeasured candidate with the smallest predicted objective, plus that
// prediction. Under a time SLO a second pairwise model predicts execution
// time: candidates predicted feasible are ranked by predicted objective;
// if none are, the candidate predicted fastest is chosen to hunt for
// feasibility.
func (a *AugmentedBO) selectByDelta(st *searchState, remaining []int, treeSeed int64) (next int, predicted float64, err error) {
	model, err := a.fitPairModel(st, treeSeed)
	if err != nil {
		return 0, 0, err
	}
	var timeModel *forest.Regressor
	if a.cfg.MaxTimeSLO > 0 {
		timeModel, err = a.fitPairModelFor(st, treeSeed+1, pairTargetTime, false)
		if err != nil {
			return 0, 0, err
		}
	}

	// Score every remaining candidate in one batched pass over the query
	// rows [src || lowlevel(src) || candidate]: the cached source halves
	// and the candidate halves serve both the objective and the time model
	// (their feature space is identical). Each candidate's per-source
	// predictions are averaged in log space, matching the paper's
	// "Surrogate Model Update" design of pooling every (src -> dst)
	// estimate.
	cache := a.pairs(st)
	srcs, dsts := cache.queryHalves(st, remaining)
	cache.rawPreds, err = model.PredictPairs(srcs, dsts, cache.rawPreds)
	if err != nil {
		return 0, 0, fmt.Errorf("core: surrogate prediction: %w", err)
	}
	cache.objMeans = reduceMeans(cache.objMeans, cache.rawPreds, len(remaining), len(st.obs))
	preds := cache.objMeans
	var predTimes []float64
	if timeModel != nil {
		cache.rawPreds, err = timeModel.PredictPairs(srcs, dsts, cache.rawPreds)
		if err != nil {
			return 0, 0, fmt.Errorf("core: surrogate time prediction: %w", err)
		}
		cache.timeMeans = reduceMeans(cache.timeMeans, cache.rawPreds, len(remaining), len(st.obs))
		predTimes = cache.timeMeans
	}

	next = -1
	predicted = math.Inf(1)
	fallback, fallbackTime := -1, math.Inf(1)
	fallbackPred := math.Inf(1)
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
		if predTimes != nil {
			predTime := predTimes[i]
			if predTime < fallbackTime {
				fallbackTime = predTime
				fallback = idx
				fallbackPred = pred
			}
			if predTime > a.cfg.MaxTimeSLO {
				continue // predicted to violate the SLO
			}
		}
		if pred < predicted {
			predicted = pred
			next = idx
		}
	}
	if next == -1 {
		// Every remaining candidate is predicted infeasible: measure the
		// one predicted fastest; its predicted objective keeps the
		// stopping rule from firing spuriously.
		next = fallback
		predicted = fallbackPred
	}
	return next, predicted, nil
}

// fitPairModel builds the training set of all ordered measured pairs and
// fits the Extra-Trees regressor. Targets are modeled in log space: the
// response surface is multiplicative (thrash factors, speed ratios) and
// averaging source predictions in log space takes a geometric mean, which
// is robust to one source predicting a blow-up.
func (a *AugmentedBO) fitPairModel(st *searchState, treeSeed int64) (*forest.Regressor, error) {
	return a.fitPairModelFor(st, treeSeed, pairTargetObjective, true)
}

// fitPairModelFor fits the Extra-Trees regressor on the cached pairwise
// training set for the selected target (objective value or execution time,
// both modeled in log space). Warm-start history carries objective values
// only, so it contributes rows only when the target is the objective
// (withHistory).
func (a *AugmentedBO) fitPairModelFor(st *searchState, treeSeed int64, target pairTarget, withHistory bool) (*forest.Regressor, error) {
	if len(st.obs) < 2 {
		return nil, fmt.Errorf("core: pairwise surrogate needs >= 2 observations, have %d: %w", len(st.obs), ErrBadConfig)
	}
	cache := a.pairs(st)
	cache.sync(st)
	xs, ys, units := cache.trainingSet(target, withHistory)
	cfg := a.cfg.Forest
	cfg.Seed = treeSeed
	if cfg.SampleRate == 0 {
		cfg.SampleRate = defaultPairSampleRate
	}
	var prev *forest.Regressor
	if !a.cfg.DisableIncrementalRefit {
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
func (a *AugmentedBO) pairs(st *searchState) *pairCache {
	if st.pairs == nil {
		st.pairs = newPairCache(st.target.NumCandidates(), len(st.features[0]), a.cfg.DisableLowLevel)
		st.pairs.addWarm(a.cfg.WarmStart)
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

// ExplainSurrogate refits the pairwise surrogate on a finished search and
// reports which columns its trees split on — a cheap view of whether the
// model leans on the low-level metrics (Section IV-A's feature-selection
// discussion). The result must come from a search over target.
func (a *AugmentedBO) ExplainSurrogate(target Target, res *Result) ([]FeatureImportance, error) {
	st, err := newSearchState(target, res.Objective)
	if err != nil {
		return nil, err
	}
	for _, obs := range res.Observations {
		if obs.Index < 0 || obs.Index >= len(st.features) {
			return nil, fmt.Errorf("core: observation index %d outside target: %w", obs.Index, ErrBadConfig)
		}
		st.measured[obs.Index] = true
		st.obs = append(st.obs, obs)
	}
	model, err := a.fitPairModel(st, a.cfg.Seed)
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
