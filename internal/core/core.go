// Package core implements the paper's contribution: sequential model-based
// optimization (SMBO) over a finite VM catalog, in three flavors —
//
//   - NaiveBO: CherryPick-style Bayesian optimization with a Gaussian-
//     process surrogate and Expected Improvement (Section III);
//   - AugmentedBO: Arrow's low-level augmented Bayesian optimization with
//     an Extra-Trees surrogate trained on (source VM, source low-level
//     metrics, destination VM) pairs and a Prediction-Delta acquisition
//     and stopping rule (Section IV);
//   - HybridBO: Naive BO for the first few measurements, Augmented BO
//     afterwards, curing Augmented BO's slow start (Section V-B).
//
// A RandomSearch baseline is included for calibration. All optimizers
// minimize: smaller objective values are better.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/lowlevel"
	"repro/internal/telemetry"
)

// Objective selects what the search minimizes.
type Objective int

// The paper's three optimization objectives.
const (
	MinimizeTime Objective = iota + 1
	MinimizeCost
	MinimizeTimeCostProduct
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinimizeTime:
		return "time"
	case MinimizeCost:
		return "cost"
	case MinimizeTimeCostProduct:
		return "time-cost-product"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Outcome is what one measurement of a candidate yields: the raw
// performance plus the low-level metric vector a sysstat daemon would have
// collected during the run.
type Outcome struct {
	TimeSec float64
	CostUSD float64
	Metrics lowlevel.Vector
}

// Value projects the outcome onto an objective.
func (out Outcome) Value(o Objective) (float64, error) {
	switch o {
	case MinimizeTime:
		return out.TimeSec, nil
	case MinimizeCost:
		return out.CostUSD, nil
	case MinimizeTimeCostProduct:
		return out.TimeSec * out.CostUSD, nil
	default:
		return 0, fmt.Errorf("core: invalid objective %d", int(o))
	}
}

// Target abstracts the system under optimization: a finite catalog of
// candidates (VM types), each with a published feature encoding, that can
// be measured at a cost. internal/sim provides the simulator-backed
// implementation; anything that can run a workload can implement it.
type Target interface {
	Catalog
	// Measure runs the workload on candidate i and reports the outcome.
	Measure(i int) (Outcome, error)
}

// Catalog is the measurement-free slice of Target: candidate metadata
// the advisor needs to plan, with the measurement left to the caller.
type Catalog interface {
	// NumCandidates returns the catalog size.
	NumCandidates() int
	// Features returns the instance-space encoding of candidate i.
	Features(i int) []float64
	// Name returns a human-readable name for candidate i.
	Name(i int) string
}

// Observation is one measured candidate.
type Observation struct {
	Index   int     // candidate index in the Target
	Value   float64 // objective value (smaller is better)
	Outcome Outcome
}

// Step records one search iteration for trace analysis.
type Step struct {
	Index      int     // measured candidate
	Value      float64 // its objective value
	BestSoFar  float64 // best objective value after this measurement
	Score      float64 // acquisition score that selected it (0 for initial design)
	FromDesign bool    // true if part of the initial design
}

// FailureRecord documents one candidate the search gave up on: its
// measurement failed (or produced an invalid outcome) and the candidate was
// quarantined so the loop could continue over the rest of the catalog.
type FailureRecord struct {
	Index      int    // candidate index in the Target
	Name       string // candidate name, for reports
	Err        error  // why the measurement was rejected
	FromDesign bool   // true if the failure hit the initial design
}

// Result is a completed search.
type Result struct {
	Method       string
	Objective    Objective
	Observations []Observation
	Steps        []Step
	BestIndex    int
	BestValue    float64
	StoppedEarly bool
	StopReason   string

	// Failures lists every candidate that was quarantined after its
	// measurement failed. A non-empty list does not make the result
	// partial: the search completed over the candidates that survived.
	Failures []FailureRecord

	// Partial is true when the search could not run to its own stopping
	// rule — it was aborted (context canceled, fatal target error) or
	// every candidate failed. The result still carries every completed
	// observation; the accompanying error says why the search ended.
	Partial bool

	// SLOSatisfied is false only when a time SLO was configured and no
	// measured VM met it — BestIndex then points at the fastest VM
	// observed (the closest to feasibility) and BestValue is its
	// objective value.
	SLOSatisfied bool
}

// NumMeasurements returns the search cost.
func (r *Result) NumMeasurements() int { return len(r.Observations) }

// MeasuredAtStep returns the 1-based step at which candidate idx was
// measured, or 0 if it never was.
func (r *Result) MeasuredAtStep(idx int) int {
	for i, obs := range r.Observations {
		if obs.Index == idx {
			return i + 1
		}
	}
	return 0
}

// BestAfter returns the best (smallest) objective value among the first k
// measurements. It errors if k is out of range.
func (r *Result) BestAfter(k int) (float64, error) {
	if k < 1 || k > len(r.Observations) {
		return 0, fmt.Errorf("core: step %d out of [1,%d]", k, len(r.Observations))
	}
	best := math.Inf(1)
	for _, obs := range r.Observations[:k] {
		if obs.Value < best {
			best = obs.Value
		}
	}
	return best, nil
}

// Optimizer is a search method over a Target.
type Optimizer interface {
	// Name identifies the method ("naive-bo", "augmented-bo", ...).
	Name() string
	// Search runs the full optimization loop against the target.
	Search(target Target) (*Result, error)
}

// ErrTargetEmpty reports a target with no candidates.
var ErrTargetEmpty = errors.New("core: target has no candidates")

// ErrBadConfig reports an invalid optimizer configuration.
var ErrBadConfig = errors.New("core: invalid configuration")

// ErrInvalidOutcome reports a measurement whose outcome would poison the
// surrogate models: NaN/Inf/non-positive execution time, negative or
// non-finite cost, or an out-of-range metric vector.
var ErrInvalidOutcome = errors.New("core: invalid measurement outcome")

// ErrAllCandidatesFailed reports a search in which not a single candidate
// could be measured: every one was quarantined.
var ErrAllCandidatesFailed = errors.New("core: every candidate failed to measure")

// fatalError marks a measurement error that must abort the whole search
// instead of quarantining one candidate. Built with Fatal.
type fatalError struct{ err error }

func (e *fatalError) Error() string     { return e.err.Error() }
func (e *fatalError) Unwrap() error     { return e.err }
func (e *fatalError) SearchFatal() bool { return true }

// Fatal marks err as search-fatal: when a Target's Measure returns it, the
// optimizer aborts with a partial result instead of quarantining the
// candidate and continuing. Context cancellation errors are always fatal
// and need no marking. errors.Is/As still see the wrapped error.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

// fatalMeasurement reports whether a measurement error ends the search
// (partial result) rather than quarantining the candidate: context
// cancellation — the caller gave up, retrying other candidates would
// keep burning money — or an explicit Fatal marking.
func fatalMeasurement(err error) bool {
	var f interface{ SearchFatal() bool }
	if errors.As(err, &f) && f.SearchFatal() {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ValidateOutcome rejects outcomes that would poison the surrogates. The
// search loop applies it to every measurement before the observation
// reaches a model; corrupted measurements quarantine their candidate.
func ValidateOutcome(out Outcome) error {
	if math.IsNaN(out.TimeSec) || math.IsInf(out.TimeSec, 0) || out.TimeSec <= 0 {
		return fmt.Errorf("%w: execution time %v", ErrInvalidOutcome, out.TimeSec)
	}
	if math.IsNaN(out.CostUSD) || math.IsInf(out.CostUSD, 0) || out.CostUSD < 0 {
		return fmt.Errorf("%w: cost %v", ErrInvalidOutcome, out.CostUSD)
	}
	if err := out.Metrics.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOutcome, err)
	}
	return nil
}

// AcceptMeasurement is the search loop's rule for one Measure(i) on cat:
// given what Measure returned, it reports the objective value the loop
// records, or the error it rejects the measurement with. A rejection
// that is search-fatal (a Fatal-marked or context error) aborts the
// search; any other quarantines candidate i. Code that must predict what
// a search accepts calls it rather than restating the checks.
func AcceptMeasurement(cat Catalog, i int, objective Objective, out Outcome, merr error) (float64, error) {
	if merr != nil {
		return 0, fmt.Errorf("core: measuring %s: %w", cat.Name(i), merr)
	}
	if err := ValidateOutcome(out); err != nil {
		return 0, fmt.Errorf("core: measurement of %s: %w", cat.Name(i), err)
	}
	val, err := out.Value(objective)
	if err != nil {
		return 0, Fatal(err)
	}
	if val <= 0 || math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, fmt.Errorf("core: measurement of %s yielded invalid objective %v: %w",
			cat.Name(i), val, ErrInvalidOutcome)
	}
	return val, nil
}

// searchState carries the bookkeeping shared by every optimizer.
type searchState struct {
	target    Target
	objective Objective

	// sloTime, when positive, constrains the search: only observations
	// with TimeSec <= sloTime may become the incumbent (CherryPick's
	// "minimize cost subject to a performance SLO" formulation).
	sloTime float64

	features    [][]float64 // candidate features, cached
	scaled      [][]float64 // min-max-scaled features; see scaledFeatures
	measured    []bool
	quarantined []bool // candidates masked out after a failed measurement
	failures    []FailureRecord
	obs         []Observation
	steps       []Step

	bestIdx int
	bestVal float64

	// designPlan is the resolved initial design, recorded so batch
	// planning (internal/core/batch.go) can predict the loop's next picks
	// while it is still working through the design.
	designPlan []int

	// pairs is the augmented surrogate's incremental training-set cache,
	// created lazily on the first pairwise fit. It lives on the state (not
	// the optimizer) so a hybrid search hands its naive-phase observations
	// to the augmented phase without a rebuild.
	pairs *pairCache

	// fastestIdx/fastestTime track the minimum observed execution time,
	// the fallback answer when nothing meets the SLO.
	fastestIdx  int
	fastestTime float64

	// tracer receives the search's event stream; nil (the default) keeps
	// every emission site to a single branch, so an untraced search pays
	// nothing. method is stamped on every event and names the result, so
	// a hybrid search's phases both report as the hybrid.
	tracer telemetry.Tracer
	method string

	// resume is the stepper-owned decision script cursor, discovered
	// from the target when it carries one (see resume.go). Nil for
	// batch searches against plain targets.
	resume *resumeState
}

func newSearchState(target Target, objective Objective) (*searchState, error) {
	n := target.NumCandidates()
	if n == 0 {
		return nil, ErrTargetEmpty
	}
	switch objective {
	case MinimizeTime, MinimizeCost, MinimizeTimeCostProduct:
	default:
		return nil, fmt.Errorf("core: objective %d: %w", int(objective), ErrBadConfig)
	}
	features := make([][]float64, n)
	dims := -1
	for i := 0; i < n; i++ {
		f := target.Features(i)
		if dims == -1 {
			dims = len(f)
		}
		if len(f) != dims || dims == 0 {
			return nil, fmt.Errorf("core: candidate %d has %d features, want %d: %w", i, len(f), dims, ErrBadConfig)
		}
		features[i] = append([]float64(nil), f...)
	}
	st := &searchState{
		target:      target,
		objective:   objective,
		features:    features,
		measured:    make([]bool, n),
		quarantined: make([]bool, n),
		bestIdx:     -1,
		bestVal:     math.Inf(1),
		fastestIdx:  -1,
		fastestTime: math.Inf(1),
	}
	if rc, ok := target.(resumeCarrier); ok {
		st.resume = rc.resumeState()
	}
	return st, nil
}

// setTracer attaches the event sink (nil disables tracing) and the
// method label stamped on every event. Optimizers call it right after
// newSearchState, before the initial design, so design measurements are
// traced too.
func (s *searchState) setTracer(t telemetry.Tracer, method string) {
	s.tracer = t
	s.method = method
}

// emit stamps the method and forwards to the tracer. Callers must guard
// with `s.tracer != nil` so untraced searches pay one branch and zero
// allocations per site.
func (s *searchState) emit(e telemetry.Event) {
	e.Method = s.method
	s.tracer.Emit(e)
}

// emitSearchStart announces the search: catalog size and objective.
func (s *searchState) emitSearchStart() {
	if s.tracer != nil {
		s.emit(telemetry.Event{
			Kind:      telemetry.KindSearchStart,
			Candidate: -1,
			Value:     float64(len(s.features)),
			Detail:    s.objective.String(),
		})
	}
}

// emitFit records one surrogate fit: the model name, its training-set
// size, the elapsed time since t0 (only meaningful when tracing —
// callers take t0 under the same tracer guard), and the refit
// disposition: incremental true when cached model state was reused, with
// reused counting the carried-over components (trees or grid
// factorizations). The disposition rides in Wall because incremental and
// full refits are bit-identical in everything but the work performed.
func (s *searchState) emitFit(model string, rows int, t0 time.Time, incremental bool, reused int) {
	if s.tracer == nil {
		return
	}
	refit := "full"
	if incremental {
		refit = "incremental"
	}
	s.emit(telemetry.Event{
		Kind:      telemetry.KindSurrogateFit,
		Step:      len(s.obs),
		Candidate: -1,
		Value:     float64(rows),
		Detail:    model,
		Wall: &telemetry.Wall{
			DurationNS: time.Since(t0).Nanoseconds(),
			Refit:      refit,
			Reused:     reused,
		},
	})
}

// emitSelected records an acquisition pass's winner. aux carries the
// stopping-rule quantity; non-finite values (the +Inf maxEI of non-EI
// acquisitions) are zeroed to keep traces JSON-encodable.
func (s *searchState) emitSelected(idx int, score, aux float64) {
	if s.tracer == nil || idx < 0 {
		return
	}
	if math.IsInf(aux, 0) || math.IsNaN(aux) {
		aux = 0
	}
	s.emit(telemetry.Event{
		Kind:      telemetry.KindCandidateSelected,
		Step:      len(s.obs),
		Candidate: idx,
		Name:      s.target.Name(idx),
		Value:     score,
		Aux:       aux,
	})
}

// feasible reports whether an outcome satisfies the SLO (trivially true
// without one).
func (s *searchState) feasible(out Outcome) bool {
	return s.sloTime <= 0 || out.TimeSec <= s.sloTime
}

// hasIncumbent reports whether any feasible observation exists yet.
func (s *searchState) hasIncumbent() bool { return s.bestIdx >= 0 }

// quarantine masks idx out of every future candidate set and records why.
func (s *searchState) quarantine(idx int, cause error, fromDesign bool) {
	s.quarantined[idx] = true
	s.failures = append(s.failures, FailureRecord{
		Index:      idx,
		Name:       s.target.Name(idx),
		Err:        cause,
		FromDesign: fromDesign,
	})
	if s.tracer != nil {
		s.emit(telemetry.Event{
			Kind:       telemetry.KindQuarantine,
			Step:       len(s.obs),
			Candidate:  idx,
			Name:       s.target.Name(idx),
			Detail:     cause.Error(),
			FromDesign: fromDesign,
		})
	}
}

// measure runs one measurement, updating observations and the incumbent.
// A failed or invalid measurement quarantines the candidate and returns
// ok=false with a nil error — the search continues over the remaining
// catalog. A non-nil error is fatal (context canceled, target abort,
// internal misuse) and the caller must stop with a partial result.
func (s *searchState) measure(idx int, score float64, fromDesign bool) (ok bool, err error) {
	if s.measured[idx] {
		return false, fmt.Errorf("core: candidate %d (%s) measured twice", idx, s.target.Name(idx))
	}
	if s.quarantined[idx] {
		return false, fmt.Errorf("core: candidate %d (%s) is quarantined", idx, s.target.Name(idx))
	}
	var measureT0 time.Time
	if s.tracer != nil {
		measureT0 = time.Now()
		s.emit(telemetry.Event{
			Kind:       telemetry.KindMeasureStart,
			Step:       len(s.obs),
			Candidate:  idx,
			Name:       s.target.Name(idx),
			FromDesign: fromDesign,
		})
	}
	out, merr := s.target.Measure(idx)
	val, err := AcceptMeasurement(s.target, idx, s.objective, out, merr)
	if err != nil {
		if fatalMeasurement(err) {
			return false, err
		}
		s.quarantine(idx, err, fromDesign)
		return false, nil
	}
	s.measured[idx] = true
	s.obs = append(s.obs, Observation{Index: idx, Value: val, Outcome: out})
	s.noteOutcome(idx, val, out)
	s.steps = append(s.steps, Step{
		Index:      idx,
		Value:      val,
		BestSoFar:  s.bestVal,
		Score:      score,
		FromDesign: fromDesign,
	})
	if s.tracer != nil {
		incumbent := 0.0 // Aux stays 0 until a feasible incumbent exists
		if s.hasIncumbent() {
			incumbent = s.bestVal
		}
		s.emit(telemetry.Event{
			Kind:       telemetry.KindMeasureDone,
			Step:       len(s.obs),
			Candidate:  idx,
			Name:       s.target.Name(idx),
			Value:      val,
			Aux:        incumbent,
			FromDesign: fromDesign,
			Wall:       &telemetry.Wall{DurationNS: time.Since(measureT0).Nanoseconds()},
		})
	}
	return true, nil
}

// noteOutcome updates the incumbent and fastest-time trackers for a
// measured outcome — or, during batch planning, an imputed one, so a
// fantasized acquisition pass and stop check see a consistent state.
func (s *searchState) noteOutcome(idx int, val float64, out Outcome) {
	if s.feasible(out) && val < s.bestVal {
		s.bestVal, s.bestIdx = val, idx
	}
	if out.TimeSec < s.fastestTime {
		s.fastestTime, s.fastestIdx = out.TimeSec, idx
	}
}

// unmeasured returns the indices still available for measurement: not yet
// measured and not quarantined.
func (s *searchState) unmeasured() []int { return s.unmeasuredExcluding(nil) }

// unmeasuredExcluding returns the unmeasured candidates outside excluded —
// for a fantasy pick, the ones not already suggested.
func (s *searchState) unmeasuredExcluding(excluded map[int]bool) []int {
	var out []int
	for i, m := range s.measured {
		if !m && !s.quarantined[i] && !excluded[i] {
			out = append(out, i)
		}
	}
	return out
}

// result finalizes the search under the method label setTracer stamped.
func (s *searchState) result(stoppedEarly bool, reason string) *Result {
	res := &Result{
		Method:       s.method,
		Objective:    s.objective,
		Observations: append([]Observation(nil), s.obs...),
		Steps:        append([]Step(nil), s.steps...),
		Failures:     append([]FailureRecord(nil), s.failures...),
		BestIndex:    s.bestIdx,
		BestValue:    s.bestVal,
		StoppedEarly: stoppedEarly,
		StopReason:   reason,
		SLOSatisfied: true,
	}
	if !s.hasIncumbent() {
		// Nothing feasible was measured: either an SLO was set and no VM
		// met it (report the fastest seen), or every measurement failed
		// (report no best at all).
		res.SLOSatisfied = s.sloTime <= 0
		res.BestIndex = s.fastestIdx
		res.BestValue = 0
		for _, obs := range s.obs {
			if obs.Index == s.fastestIdx {
				res.BestValue = obs.Value
			}
		}
	}
	if s.tracer != nil {
		name := ""
		if res.BestIndex >= 0 {
			name = s.target.Name(res.BestIndex)
		}
		s.emit(telemetry.Event{
			Kind:      telemetry.KindSearchEnd,
			Step:      len(s.obs),
			Candidate: res.BestIndex,
			Name:      name,
			Value:     res.BestValue,
			Aux:       float64(len(s.failures)),
			Detail:    reason,
			Stopped:   stoppedEarly,
		})
	}
	return res
}

// stopEarly finalizes a search whose stopping rule fired: value is the
// rule's quantity, threshold the bound it crossed.
func (s *searchState) stopEarly(value, threshold float64, reason string) (*Result, error) {
	if s.tracer != nil {
		s.emit(telemetry.Event{
			Kind:      telemetry.KindStopRule,
			Step:      len(s.obs),
			Candidate: -1,
			Value:     value,
			Aux:       threshold,
			Detail:    reason,
		})
	}
	return s.result(true, reason), nil
}

// finish finalizes a loop that ran out of candidates or budget. When not a
// single candidate could be measured the result is partial and comes with
// ErrAllCandidatesFailed, so callers still see the failure record.
func (s *searchState) finish(reason string) (*Result, error) {
	if len(s.obs) == 0 && len(s.failures) > 0 {
		res := s.result(false, "every candidate failed")
		res.Partial = true
		return res, fmt.Errorf("core: %d candidate(s) quarantined, none measured: %w",
			len(s.failures), ErrAllCandidatesFailed)
	}
	return s.result(false, reason), nil
}

// abort finalizes a search stopped by a fatal error: the partial result
// keeps every paid-for observation and the error explains the abort.
func (s *searchState) abort(cause error) (*Result, error) {
	res := s.result(false, fmt.Sprintf("aborted: %v", cause))
	res.Partial = true
	return res, fmt.Errorf("core: search aborted after %d measurement(s): %w", len(s.obs), cause)
}
