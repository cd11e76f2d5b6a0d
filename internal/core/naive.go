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
	"repro/internal/telemetry"
)

// DefaultUCBBeta is the exploration weight of the GP-UCB acquisition.
const DefaultUCBBeta = 2.0

// DefaultMESSamples is the posterior-minimum sample count for the
// entropy-search acquisition.
const DefaultMESSamples = 64

// searchNaive is the Gaussian-process Bayesian optimizer the paper calls
// "Naive BO" (the CherryPick method).
func (o *optimizer) searchNaive(st *searchState, rng *rand.Rand) (*Result, error) {
	if res, err := o.runNaive(st, rng, o.cfg.MaxMeasurements); res != nil {
		return res, err
	}
	return st.finish("search space exhausted")
}

// runNaive is Naive BO's search on a started state: the initial design,
// then GP-guided measurements until the stopping rule fires, maxMeas
// observations exist or the catalog runs out (maxMeas zero means the
// whole catalog). The stopping rule may fire once the design has been
// measured plus one more. It returns a result only when it ended the
// search (stopping rule or abort); a nil result hands the state back,
// to be finished by searchNaive or continued by Hybrid BO's augmented
// phase.
func (o *optimizer) runNaive(st *searchState, rng *rand.Rand, maxMeas int) (*Result, error) {
	if o.cfg.Acquisition == acquisition.EntropySearch {
		// Entropy search samples posterior minima from the main RNG in
		// the selection pass; a scripted selection would skip those
		// draws and desynchronize every later one.
		st.voidResumeDecisions()
	}

	// On a batch-capable target, install the fantasization hook before the
	// design so a Stepper can plan ahead from the very first suggestion.
	// The hook answers from the design plan until the main loop's state
	// (scratch, budgets) is published below.
	var planner *naivePlanner
	if ph, ok := st.target.(PlanHookSetter); ok {
		planner = &naivePlanner{o: o, st: st}
		ph.SetPlanHook(planner.plan)
	}

	if err := st.runInitialDesign(o.cfg.Design, rng); err != nil {
		return st.abort(err)
	}
	minObs := len(st.obs) + 1
	maxMeas = st.budget(maxMeas)
	if _, err := st.scaledFeatures(); err != nil {
		return st.abort(fmt.Errorf("core: scaling features: %w", err))
	}

	// One scratch for the whole search: the training-set headers, query
	// rows, and posterior buffers are reused every iteration.
	scratch := &gpScratch{}
	if planner != nil {
		planner.sc, planner.minObs, planner.maxMeas = scratch, minObs, maxMeas
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
			next, score, maxEI, err = o.selectCandidate(st, remaining, rng, scratch)
			if err != nil {
				return st.abort(err)
			}
			st.recordDecision(next, score, maxEI)
		}
		if o.eiStops(st, maxEI, minObs) {
			return st.stopEarly(maxEI, o.cfg.EIStopFraction*st.bestVal,
				fmt.Sprintf("max EI %.4g below %.0f%% of incumbent %.4g", maxEI, 100*o.cfg.EIStopFraction, st.bestVal))
		}
		st.emitSelected(next, score, maxEI)
		if _, err := st.measure(next, score, false); err != nil {
			return st.abort(err)
		}
	}
	return nil, nil
}

// eiStops is Naive BO's stopping rule, shared by the loop and its
// planner: once minObs observations exist, stop when the best Expected
// Improvement falls below EIStopFraction x the feasible incumbent. A
// hybrid's canonical EIStopFraction is zero, so its opening phase never
// stops.
func (o *optimizer) eiStops(st *searchState, maxEI float64, minObs int) bool {
	return o.cfg.EIStopFraction > 0 && len(st.obs) >= minObs && st.hasIncumbent() &&
		maxEI < o.cfg.EIStopFraction*st.bestVal
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
func (o *optimizer) feasibilityProbs(st *searchState, queries [][]float64, sc *gpScratch) ([]float64, error) {
	model, err := o.fitGP(st, sc, true)
	if err != nil {
		return nil, fmt.Errorf("core: fitting time GP for SLO: %w", err)
	}
	sc.timeMeans, sc.timeVars, err = model.PredictBatch(queries, 0, sc.timeMeans, sc.timeVars)
	if err != nil {
		return nil, fmt.Errorf("core: time prediction: %w", err)
	}
	logSLO := math.Log(o.cfg.MaxTimeSLO)
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
func (o *optimizer) fitSurrogate(sc *gpScratch, xs [][]float64, ys []float64) (*gp.GP, gp.FitInfo, error) {
	fit := func(kind kernel.Kind) (*gp.GP, gp.FitInfo, error) {
		if o.cfg.fullRefit {
			model, err := gp.Fit(gp.Config{Kernel: kind, ARD: o.cfg.ARD}, xs, ys)
			return model, gp.FitInfo{}, err
		}
		return sc.fitterFor(kind, o.cfg.ARD).Fit(xs, ys)
	}
	if !o.cfg.AutoKernel {
		model, info, err := fit(o.cfg.Kernel)
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

// fitGP fits the log-objective GP or, with timeModel, the
// log-execution-time GP on the current observations, and records the
// fit. Multiplicative response surfaces (ours and the paper's) are
// easier for a GP in log space; CherryPick makes the same
// transformation. The acquisition pass, the SLO feasibility pass and the
// planner's imputation all train through it.
func (o *optimizer) fitGP(st *searchState, sc *gpScratch, timeModel bool) (*gp.GP, error) {
	xs, ys := sc.xs[:0], sc.ys[:0]
	for _, obs := range st.obs {
		xs = append(xs, st.scaled[obs.Index])
		if timeModel {
			ys = append(ys, math.Log(obs.Outcome.TimeSec))
		} else {
			ys = append(ys, math.Log(obs.Value))
		}
	}
	sc.xs, sc.ys = xs, ys
	var fitT0 time.Time
	if st.tracer != nil {
		fitT0 = time.Now()
	}
	model, info, err := o.fitSurrogate(sc, xs, ys)
	if err != nil {
		return nil, err
	}
	name := "gp"
	if timeModel {
		name = "gp-time"
	}
	st.emitFit(name, len(xs), fitT0, info.Incremental, info.ReusedFactors)
	return model, nil
}

// selectCandidate fits the GP surrogate and returns the unmeasured
// candidate maximizing the configured acquisition. maxEI is the best
// Expected Improvement in objective units (+Inf for non-EI acquisitions,
// so the EI stopping rule never fires for them).
func (o *optimizer) selectCandidate(st *searchState, remaining []int, rng *rand.Rand, sc *gpScratch) (next int, score, maxEI float64, err error) {
	model, err := o.fitGP(st, sc, false)
	if err != nil {
		return 0, 0, 0, err
	}
	best := math.Log(st.bestVal)

	// Pass 1: posterior moments for every unmeasured candidate, batched
	// over a worker pool with reused row buffers.
	queries := sc.queries[:0]
	for _, idx := range remaining {
		queries = append(queries, st.scaled[idx])
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
	if o.cfg.MaxTimeSLO > 0 {
		pFeas, err = o.feasibilityProbs(st, queries, sc)
		if err != nil {
			return 0, 0, 0, err
		}
	}

	// Entropy search needs samples of the posterior minimum over the
	// domain; the incumbent floors every sample (its value is known).
	var minSamples []float64
	if o.cfg.Acquisition == acquisition.EntropySearch {
		minSamples, err = acquisition.SampleMinValues(rng, means, variances, DefaultMESSamples)
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
		switch o.cfg.Acquisition {
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
			lcb, err = acquisition.LCB(mean, variance, DefaultUCBBeta)
			s = -lcb
		case acquisition.EntropySearch:
			s, err = acquisition.MES(mean, variance, minSamples)
		default:
			return 0, 0, 0, fmt.Errorf("core: acquisition %v: %w", o.cfg.Acquisition, ErrBadConfig)
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
	if o.cfg.Acquisition != acquisition.ExpectedImprovement {
		return next, score, math.Inf(1), nil
	}
	if pFeas != nil && !st.hasIncumbent() {
		// The score is a feasibility probability, not an improvement:
		// never let the EI stopping rule fire on it.
		return next, score, math.Inf(1), nil
	}
	// Convert the log-space improvement into objective units so the
	// stopping rule "EI < fraction x incumbent" stays meaningful: an
	// improvement of delta in log space shrinks the incumbent to
	// incumbent*exp(-delta), i.e. improves it by incumbent*(1-exp(-delta)).
	maxEI = st.bestVal * (1 - math.Exp(-score))
	return next, maxEI, maxEI, nil
}
