package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/acquisition"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// NaiveBOConfig configures the CherryPick-style baseline.
type NaiveBOConfig struct {
	// Objective selects what to minimize. Required.
	Objective Objective
	// Kernel is the GP covariance family. Zero means kernel.Matern52,
	// CherryPick's prescribed choice. Ignored when AutoKernel is set.
	Kernel kernel.Kind
	// AutoKernel selects the kernel family per fit by log marginal
	// likelihood across RBF and the Matérn family — the "automatic model
	// selection" practice Section III-B cites as the engineering
	// alternative to hand-picking a kernel.
	AutoKernel bool
	// Acquisition selects the acquisition function. Zero means Expected
	// Improvement (CherryPick's choice); acquisition.ProbabilityOfImprovement
	// and acquisition.UpperConfidenceBound are provided for comparison.
	// The EI-fraction stopping rule only applies to Expected Improvement;
	// other acquisitions run until MaxMeasurements.
	Acquisition acquisition.Kind
	// UCBBeta is the exploration weight for UpperConfidenceBound.
	// Zero means DefaultUCBBeta.
	UCBBeta float64
	// MESSamples is the number of posterior-minimum samples drawn per
	// iteration by the EntropySearch acquisition. Zero means
	// DefaultMESSamples.
	MESSamples int
	// ARD enables per-dimension GP length scales (automatic relevance
	// determination), letting the surrogate discount instance features
	// that do not matter for the workload at hand.
	ARD bool
	// MaxTimeSLO, when positive, constrains the search to VMs whose
	// execution time stays within the SLO — CherryPick's original
	// formulation ("minimize cost subject to a performance constraint").
	// The surrogate gains a second GP modeling execution time, and the
	// acquisition becomes constrained EI: EI x P(time <= SLO). Only
	// supported with the ExpectedImprovement acquisition.
	MaxTimeSLO float64
	// EIStopFraction stops the search once the maximum Expected
	// Improvement falls below this fraction of the best observation
	// (CherryPick uses 10%). Zero means DefaultEIStopFraction; negative
	// disables early stopping.
	EIStopFraction float64
	// MinObservations is the smallest number of measurements before the
	// stopping rule may fire. Zero means the design size plus one.
	MinObservations int
	// MaxMeasurements caps the search cost. Zero means "the whole
	// catalog".
	MaxMeasurements int
	// Design configures the initial sample.
	Design DesignConfig
	// Seed drives the initial design (and nothing else; the GP is
	// deterministic given the observations).
	Seed int64
	// FitLogObjective models log(y) instead of y. Multiplicative
	// response surfaces (ours and the paper's) are easier for a GP in
	// log space; CherryPick makes the same transformation.
	// DisableLogObjective turns it off.
	DisableLogObjective bool
	// fullRefit forces every GP fit to refactor the kernel matrix from
	// scratch instead of extending the previous iteration's Cholesky
	// factors. The search is bit-identical either way (the extension is
	// prefix-stable); only this package's tests set it, as the oracle
	// the incremental path is checked against.
	fullRefit bool
	// Tracer receives the search's event stream (see internal/telemetry).
	// Nil disables tracing at zero cost.
	Tracer telemetry.Tracer
}

// DefaultEIStopFraction is CherryPick's stopping threshold: stop once no
// candidate's expected improvement reaches 10% of the incumbent.
const DefaultEIStopFraction = 0.10

// DefaultUCBBeta is the exploration weight used by the GP-UCB acquisition
// when none is configured.
const DefaultUCBBeta = 2.0

// DefaultMESSamples is the posterior-minimum sample count for the
// entropy-search acquisition.
const DefaultMESSamples = 64

// NaiveBO is the Gaussian-process Bayesian optimizer the paper calls
// "Naive BO" (the CherryPick method).
type NaiveBO struct {
	cfg NaiveBOConfig
}

// Compile-time interface check.
var _ Optimizer = (*NaiveBO)(nil)

// NewNaiveBO validates the configuration and builds the optimizer.
func NewNaiveBO(cfg NaiveBOConfig) (*NaiveBO, error) {
	if cfg.Kernel == 0 {
		cfg.Kernel = kernel.Matern52
	}
	if cfg.EIStopFraction == 0 {
		cfg.EIStopFraction = DefaultEIStopFraction
	}
	if cfg.EIStopFraction > 1 {
		return nil, fmt.Errorf("core: EI stop fraction %v > 1: %w", cfg.EIStopFraction, ErrBadConfig)
	}
	if cfg.Acquisition == 0 {
		cfg.Acquisition = acquisition.ExpectedImprovement
	}
	switch cfg.Acquisition {
	case acquisition.ExpectedImprovement, acquisition.ProbabilityOfImprovement,
		acquisition.UpperConfidenceBound, acquisition.EntropySearch:
	default:
		return nil, fmt.Errorf("core: acquisition %v unsupported for naive BO: %w", cfg.Acquisition, ErrBadConfig)
	}
	if cfg.MESSamples == 0 {
		cfg.MESSamples = DefaultMESSamples
	}
	if cfg.MESSamples < 1 {
		return nil, fmt.Errorf("core: MES samples %d: %w", cfg.MESSamples, ErrBadConfig)
	}
	if cfg.UCBBeta == 0 {
		cfg.UCBBeta = DefaultUCBBeta
	}
	if cfg.UCBBeta < 0 {
		return nil, fmt.Errorf("core: UCB beta %v negative: %w", cfg.UCBBeta, ErrBadConfig)
	}
	if cfg.MaxTimeSLO < 0 || math.IsNaN(cfg.MaxTimeSLO) || math.IsInf(cfg.MaxTimeSLO, 0) {
		return nil, fmt.Errorf("core: time SLO %v invalid: %w", cfg.MaxTimeSLO, ErrBadConfig)
	}
	if cfg.MaxTimeSLO > 0 && cfg.Acquisition != acquisition.ExpectedImprovement {
		return nil, fmt.Errorf("core: time SLO requires the EI acquisition, have %v: %w", cfg.Acquisition, ErrBadConfig)
	}
	return &NaiveBO{cfg: cfg}, nil
}

// Name implements Optimizer.
func (n *NaiveBO) Name() string { return "naive-bo" }

// Search implements Optimizer.
func (n *NaiveBO) Search(target Target) (*Result, error) {
	st, err := newSearchState(target, n.cfg.Objective)
	if err != nil {
		return nil, err
	}
	st.sloTime = n.cfg.MaxTimeSLO
	st.setTracer(n.cfg.Tracer, n.Name())
	st.emitSearchStart()
	rng := rand.New(rand.NewSource(n.cfg.Seed))
	if n.cfg.Acquisition == acquisition.EntropySearch {
		// Entropy search samples posterior minima from the main RNG in
		// the selection pass; a scripted selection would skip those
		// draws and desynchronize every later one.
		st.voidResumeDecisions()
	}

	// On a batch-capable target, install the fantasization hook before the
	// design so a Stepper can plan ahead from the very first suggestion.
	// The hook answers from the design plan until the main loop's state
	// (scaled features, budgets) is published below.
	var planner *naivePlanner
	if ph, ok := target.(PlanHookSetter); ok {
		planner = &naivePlanner{n: n, st: st}
		ph.SetPlanHook(planner.plan)
	}

	if err := st.runInitialDesign(n.cfg.Design, rng); err != nil {
		return st.abort(n.Name(), err)
	}

	minObs := n.cfg.MinObservations
	if minObs == 0 {
		minObs = len(st.obs) + 1
	}
	maxMeas := n.cfg.MaxMeasurements
	if maxMeas == 0 || maxMeas > target.NumCandidates() {
		maxMeas = target.NumCandidates()
	}

	// Scale the full candidate feature set once; the catalog is known up
	// front, so this leaks no measurement information.
	scaled, _, _, err := stats.MinMaxScale(st.features)
	if err != nil {
		return st.abort(n.Name(), fmt.Errorf("core: scaling features: %w", err))
	}

	// One scratch for the whole search: the training-set headers, query
	// rows, and posterior buffers are reused every iteration.
	scratch := &gpScratch{}
	if planner != nil {
		planner.scaled, planner.sc = scaled, scratch
		planner.minObs, planner.maxMeas = minObs, maxMeas
		planner.ready = true
	}
	for len(st.obs) < maxMeas {
		remaining := st.unmeasured()
		if len(remaining) == 0 {
			break
		}
		var next int
		var score, maxEI float64
		if d, ok := st.scriptedDecision(); ok {
			// Resumed replay: the selection was recorded live; restore
			// it instead of refitting the surrogate.
			next, score, maxEI = d.Index, d.Score, d.aux()
		} else {
			var err error
			next, score, maxEI, err = n.selectCandidate(st, scaled, remaining, rng, scratch)
			if err != nil {
				return st.abort(n.Name(), err)
			}
			st.recordDecision(next, score, maxEI)
		}
		if n.cfg.EIStopFraction > 0 && len(st.obs) >= minObs && st.hasIncumbent() &&
			maxEI < n.cfg.EIStopFraction*st.bestVal {
			reason := fmt.Sprintf("max EI %.4g below %.0f%% of incumbent %.4g", maxEI, 100*n.cfg.EIStopFraction, st.bestVal)
			if st.tracer != nil {
				st.emit(telemetry.Event{
					Kind:      telemetry.KindStopRule,
					Step:      len(st.obs),
					Candidate: -1,
					Value:     maxEI,
					Aux:       n.cfg.EIStopFraction * st.bestVal,
					Detail:    reason,
				})
			}
			return st.result(n.Name(), true, reason), nil
		}
		st.emitSelected(next, score, maxEI)
		if _, err := st.measure(next, score, false); err != nil {
			return st.abort(n.Name(), err)
		}
	}
	return st.finish(n.Name(), false, "search space exhausted")
}

// gpScratch holds the buffers a Naive BO search reuses across iterations:
// training-set headers, the batched query matrix, and the posterior
// moment and feasibility outputs. Everything is sized once (catalog and
// observation counts are bounded by NumCandidates) and reused, so the
// per-iteration acquisition pass stops allocating.
type gpScratch struct {
	xs        [][]float64
	ys        []float64
	queries   [][]float64
	means     []float64
	variances []float64
	timeMeans []float64
	timeVars  []float64
	pFeas     []float64
	// fitters caches one incremental GP fitter per kernel family. The
	// feature rows are identical for the objective and the time model (and
	// only grow by one per iteration), so the acquisition pass and the SLO
	// pass of one iteration — and all later iterations — share the same
	// extended Cholesky factors.
	fitters map[kernel.Kind]*gp.Fitter
}

// fitterFor returns (building on first use) the cached incremental fitter
// for a kernel family.
func (sc *gpScratch) fitterFor(kind kernel.Kind, ard bool) *gp.Fitter {
	if sc.fitters == nil {
		sc.fitters = make(map[kernel.Kind]*gp.Fitter)
	}
	f := sc.fitters[kind]
	if f == nil {
		f = gp.NewFitter(gp.Config{Kernel: kind, ARD: ard})
		sc.fitters[kind] = f
	}
	return f
}

// feasibilityProbs fits a GP on log execution time and returns, per
// remaining candidate, the posterior probability that its time meets the
// SLO. queries must hold the scaled features of remaining, row for row.
func (n *NaiveBO) feasibilityProbs(st *searchState, scaled, queries [][]float64, sc *gpScratch) ([]float64, error) {
	xs := sc.xs[:0]
	ys := sc.ys[:0]
	for _, obs := range st.obs {
		xs = append(xs, scaled[obs.Index])
		ys = append(ys, math.Log(obs.Outcome.TimeSec))
	}
	sc.xs, sc.ys = xs, ys
	var fitT0 time.Time
	if st.tracer != nil {
		fitT0 = time.Now()
	}
	model, info, err := n.fitSurrogate(sc, xs, ys)
	if err != nil {
		return nil, fmt.Errorf("core: fitting time GP for SLO: %w", err)
	}
	st.emitFit("gp-time", len(xs), fitT0, info.Incremental, info.ReusedFactors)
	sc.timeMeans, sc.timeVars, err = model.PredictBatch(queries, 0, sc.timeMeans, sc.timeVars)
	if err != nil {
		return nil, fmt.Errorf("core: time prediction: %w", err)
	}
	logSLO := math.Log(n.cfg.MaxTimeSLO)
	if cap(sc.pFeas) >= len(queries) {
		sc.pFeas = sc.pFeas[:len(queries)]
	} else {
		sc.pFeas = make([]float64, len(queries))
	}
	out := sc.pFeas
	for i := range queries {
		mean, variance := sc.timeMeans[i], sc.timeVars[i]
		out[i] = 0
		if variance < 1e-12 {
			if mean <= logSLO {
				out[i] = 1
			}
			continue
		}
		// P(logTime <= logSLO) via the PI helper, which computes exactly
		// Phi((threshold - mean) / sigma).
		p, err := acquisition.PI(mean, variance, logSLO, 0)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// fitSurrogate trains the GP on the observations, choosing the kernel
// family by log marginal likelihood when AutoKernel is set. Unless
// incremental refits are disabled it goes through the scratch's cached
// fitters, so a fit that appends rows to the previous one extends the
// cached Cholesky factors instead of refactoring — bit-identical to the
// from-scratch path by the prefix stability of the Cholesky recurrence.
func (n *NaiveBO) fitSurrogate(sc *gpScratch, xs [][]float64, ys []float64) (*gp.GP, gp.FitInfo, error) {
	fit := func(kind kernel.Kind) (*gp.GP, gp.FitInfo, error) {
		if n.cfg.fullRefit {
			model, err := gp.Fit(gp.Config{Kernel: kind, ARD: n.cfg.ARD}, xs, ys)
			return model, gp.FitInfo{}, err
		}
		return sc.fitterFor(kind, n.cfg.ARD).Fit(xs, ys)
	}
	if !n.cfg.AutoKernel {
		model, info, err := fit(n.cfg.Kernel)
		if err != nil {
			return nil, gp.FitInfo{}, fmt.Errorf("core: fitting GP surrogate: %w", err)
		}
		return model, info, nil
	}
	var best *gp.GP
	var sum gp.FitInfo
	sum.Incremental = true
	var errs []error
	for _, kind := range kernel.All() {
		model, info, err := fit(kind)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sum.Incremental = sum.Incremental && info.Incremental
		sum.ReusedFactors += info.ReusedFactors
		sum.TotalFactors += info.TotalFactors
		if best == nil || model.LogMarginalLikelihood() > best.LogMarginalLikelihood() {
			best = model
		}
	}
	if best == nil {
		return nil, gp.FitInfo{}, fmt.Errorf("core: auto kernel selection: every family failed: %w", errors.Join(errs...))
	}
	return best, sum, nil
}

// selectCandidate fits the GP surrogate and returns the unmeasured
// candidate maximizing the configured acquisition. maxEI is the best
// Expected Improvement in objective units (+Inf for non-EI acquisitions,
// so the EI stopping rule never fires for them).
func (n *NaiveBO) selectCandidate(st *searchState, scaled [][]float64, remaining []int, rng *rand.Rand, sc *gpScratch) (next int, score, maxEI float64, err error) {
	xs := sc.xs[:0]
	ys := sc.ys[:0]
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
	var fitT0 time.Time
	if st.tracer != nil {
		fitT0 = time.Now()
	}
	model, info, err := n.fitSurrogate(sc, xs, ys)
	if err != nil {
		return 0, 0, 0, err
	}
	st.emitFit("gp", len(xs), fitT0, info.Incremental, info.ReusedFactors)

	best := st.bestVal
	if logSpace {
		best = math.Log(st.bestVal)
	}

	// Pass 1: posterior moments for every unmeasured candidate, batched
	// over a worker pool with reused row buffers.
	queries := sc.queries[:0]
	for _, idx := range remaining {
		queries = append(queries, scaled[idx])
	}
	sc.queries = queries
	sc.means, sc.variances, err = model.PredictBatch(queries, 0, sc.means, sc.variances)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: GP prediction: %w", err)
	}
	means, variances := sc.means, sc.variances

	// Under a time SLO, a second GP models log execution time and turns
	// EI into constrained EI: EI x P(time <= SLO). It scores the same
	// query rows, so the batch is reused.
	var pFeas []float64
	if n.cfg.MaxTimeSLO > 0 {
		pFeas, err = n.feasibilityProbs(st, scaled, queries, sc)
		if err != nil {
			return 0, 0, 0, err
		}
	}

	// Entropy search needs samples of the posterior minimum over the
	// domain; the incumbent floors every sample (its value is known).
	var minSamples []float64
	if n.cfg.Acquisition == acquisition.EntropySearch {
		minSamples, err = acquisition.SampleMinValues(rng, means, variances, n.cfg.MESSamples)
		if err != nil {
			return 0, 0, 0, err
		}
		for i, v := range minSamples {
			if best < v {
				minSamples[i] = best
			}
		}
	}

	// Pass 2: score candidates.
	next = -1
	score = math.Inf(-1)
	for i, idx := range remaining {
		mean, variance := means[i], variances[i]
		var s float64
		switch n.cfg.Acquisition {
		case acquisition.ExpectedImprovement:
			if pFeas != nil && !st.hasIncumbent() {
				// No feasible incumbent yet: hunt for feasibility first.
				s = pFeas[i]
				break
			}
			s, err = acquisition.EI(mean, variance, best)
			if err == nil && pFeas != nil {
				s *= pFeas[i]
			}
		case acquisition.ProbabilityOfImprovement:
			s, err = acquisition.PI(mean, variance, best, 0)
		case acquisition.UpperConfidenceBound:
			// For minimization the UCB rule picks the smallest lower
			// confidence bound; negate so "maximize score" still applies.
			var lcb float64
			lcb, err = acquisition.LCB(mean, variance, n.cfg.UCBBeta)
			s = -lcb
		case acquisition.EntropySearch:
			s, err = acquisition.MES(mean, variance, minSamples)
		default:
			return 0, 0, 0, fmt.Errorf("core: acquisition %v: %w", n.cfg.Acquisition, ErrBadConfig)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if st.tracer != nil {
			aux := 0.0
			if pFeas != nil {
				aux = pFeas[i]
			}
			st.emit(telemetry.Event{
				Kind:      telemetry.KindCandidateScored,
				Step:      len(st.obs),
				Candidate: idx,
				Name:      st.target.Name(idx),
				Value:     s,
				Aux:       aux,
			})
		}
		if s > score {
			score = s
			next = idx
		}
	}
	if n.cfg.Acquisition != acquisition.ExpectedImprovement {
		return next, score, math.Inf(1), nil
	}
	if pFeas != nil && !st.hasIncumbent() {
		// The score is a feasibility probability, not an improvement:
		// never let the EI stopping rule fire on it.
		return next, score, math.Inf(1), nil
	}
	maxEI = score
	if logSpace {
		// Convert the log-space improvement into objective units so the
		// stopping rule "EI < fraction x incumbent" stays meaningful:
		// an improvement of delta in log space shrinks the incumbent to
		// incumbent*exp(-delta), i.e. improves it by incumbent*(1-exp(-delta)).
		maxEI = st.bestVal * (1 - math.Exp(-maxEI))
	}
	return next, maxEI, maxEI, nil
}
