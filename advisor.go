package arrow

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/lowlevel"
)

// This file is the advisor (optimizer-as-a-service) surface: the same
// four optimizers, inverted from "pull measurements out of a Target"
// into a step-wise Suggest/Observe state machine that never measures
// anything itself. A client loops Next -> measure -> Observe until Next
// reports Done, then reads Result. The step-driven search runs the
// exact batch search loop (internal/core's Stepper runs it against a
// channel-backed target, advancing it only inside Next, NextBatch and
// Abort), so the same seed and observations produce the same
// recommendation and the same deterministic trace as Search.

// Candidate describes one advisable option: a name and the same
// instance-space feature encoding Target.Features would return.
type Candidate struct {
	Name     string    `json:"name"`
	Features []float64 `json:"features"`
}

// CatalogCandidates returns the built-in 18-type AWS catalog as advisor
// candidates, in the same order as CatalogVMs. The result is a fresh
// copy, feature vectors included, of a table built once per process.
func CatalogCandidates() []Candidate {
	vms := catalogVMs()
	out := make([]Candidate, len(vms))
	for i, vm := range vms {
		out[i] = Candidate{Name: vm.Name, Features: slices.Clone(vm.Features)}
	}
	return out
}

// TargetCandidates extracts the candidate catalog from a Target, for
// driving an Advisor whose measurements come from that target.
func TargetCandidates(t Target) []Candidate {
	out := make([]Candidate, t.NumCandidates())
	for i := range out {
		out[i] = Candidate{
			Name:     t.Name(i),
			Features: append([]float64(nil), t.Features(i)...),
		}
	}
	return out
}

// Suggestion is one advisor step: the candidate to measure next, or
// Done when the search is over and Result is ready.
type Suggestion struct {
	// Index / Name identify the candidate; Index is -1 when Done.
	Index int    `json:"index"`
	Name  string `json:"name,omitempty"`
	// Step counts the observations delivered before this suggestion. For
	// a batch suggestion the step is provisional: concurrent suggestions
	// are delivered to the optimizer in issue order, so a suggestion
	// observed out of order settles at a later step than advertised.
	Step int `json:"step"`
	// Seq is the suggestion's issue ordinal, stable across repeated Next
	// and NextBatch calls — the key for deduplicating retries.
	Seq int `json:"seq"`
	// Done reports that the search has finished.
	Done bool `json:"done,omitempty"`
}

// ErrBadBatchSize reports a NextBatch call with k < 1.
var ErrBadBatchSize = errors.New("arrow: batch size must be at least 1")

// ErrSearchRunning reports a Result call before the advisor finished.
var ErrSearchRunning = errors.New("arrow: search still running; result not ready")

// ErrNoPendingSuggestion reports an Observe with nothing pending: Next
// was never called, the suggestion was already observed, or the search
// is over.
var ErrNoPendingSuggestion = errors.New("arrow: no pending suggestion to observe")

// ErrSuggestionMismatch reports an Observe whose candidate index does
// not match the pending suggestion.
var ErrSuggestionMismatch = errors.New("arrow: observation does not match the pending suggestion")

// Advisor is a step-wise session of one configured Optimizer over a
// fixed candidate catalog. Construct with Optimizer.NewAdvisor; all
// methods are safe for concurrent use. Callers that abandon an Advisor
// before Next reports Done must call Abort to release its resources.
type Advisor struct {
	stepper *core.Stepper
	cat     *advisorCatalog
}

// ResumeScript is a recorded advisor decision log: every model-phase
// candidate selection and batch-plan result a live session produced, in
// order. Export one with Advisor.Script, carry it in a session
// snapshot, and hand it to NewResumedAdvisor to replay the session's
// suggest/observe history without refitting a single surrogate.
type ResumeScript = core.ResumeScript

// NewAdvisor builds a step-wise advisor session for the optimizer's
// configuration over the given candidates. Measurement middleware
// options (WithRetry, WithMeasureTimeout) do not apply — the advisor
// never measures; retrying is the measuring client's decision.
func (o *Optimizer) NewAdvisor(candidates []Candidate) (*Advisor, error) {
	return o.newAdvisor(candidates, core.ResumeScript{})
}

// NewResumedAdvisor builds an advisor that consumes a previously
// recorded decision script while the caller replays the exact
// suggestion/observation sequence it was recorded under. Scripted steps
// skip the surrogate fits, which is what makes snapshot recovery
// O(snapshot interval) instead of O(session length); once the script is
// exhausted the advisor computes — and records — like a live one.
func (o *Optimizer) NewResumedAdvisor(candidates []Candidate, script ResumeScript) (*Advisor, error) {
	return o.newAdvisor(candidates, script)
}

func (o *Optimizer) newAdvisor(candidates []Candidate, script core.ResumeScript) (*Advisor, error) {
	if len(candidates) == 0 {
		return nil, errors.New("arrow: advisor needs at least one candidate")
	}
	cat := &advisorCatalog{}
	dims := -1
	for i, c := range candidates {
		if dims == -1 {
			dims = len(c.Features)
		}
		if len(c.Features) != dims || dims == 0 {
			return nil, fmt.Errorf("arrow: candidate %d (%q) has %d features, want %d", i, c.Name, len(c.Features), dims)
		}
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("candidate-%d", i)
		}
		cat.names = append(cat.names, name)
		cat.features = append(cat.features, append([]float64(nil), c.Features...))
	}
	opt, err := buildCore(o.cfg)
	if err != nil {
		return nil, err
	}
	return &Advisor{stepper: core.ResumeStepper(opt, cat, script), cat: cat}, nil
}

// Script exports a copy of the decision script recorded so far: as of
// the last suggestion Next or NextBatch returned, or of the search's end.
// Called while another caller's plan runs, it waits for that plan.
func (a *Advisor) Script() ResumeScript { return a.stepper.Script() }

// Next returns the candidate the advisor wants measured next, blocking
// while the optimizer plans (model fit + acquisition — milliseconds, not
// a measurement). While a suggestion is pending, Next returns the same
// suggestion again. After the search ends it returns Done. ctx is
// checked once, before planning starts: an expired ctx fails the call
// and leaves the session as it was, and a plan once begun runs to its
// end; nil means no deadline.
func (a *Advisor) Next(ctx context.Context) (Suggestion, error) {
	sug, err := a.stepper.Next(ctx)
	if err != nil {
		return Suggestion{}, err
	}
	return convertSuggestion(sug), nil
}

// NextBatch returns up to k concurrent suggestions: the suggestion Next
// would return plus extra candidates planned by fantasizing outcomes for
// every suggestion still in flight (posterior-mean imputation for the GP
// methods, virtual pair rows for the forest-backed ones). Fewer than k
// come back when the optimizer's budget or stopping rule is near, or the
// method cannot plan ahead at this point; at least one is always
// returned, and k=1 is exactly Next. Suggestions may be observed in any
// order — Observe matches on candidate index — and like Next, NextBatch
// is idempotent: until observations arrive it returns the same
// suggestions again. After the search ends it returns a single Done
// suggestion.
func (a *Advisor) NextBatch(ctx context.Context, k int) ([]Suggestion, error) {
	sugs, err := a.stepper.NextBatch(ctx, k)
	if err != nil {
		if errors.Is(err, core.ErrBadBatchSize) {
			return nil, fmt.Errorf("%w: got %d", ErrBadBatchSize, k)
		}
		return nil, err
	}
	out := make([]Suggestion, len(sugs))
	for i, sug := range sugs {
		out[i] = convertSuggestion(sug)
	}
	return out, nil
}

// convertSuggestion maps a stepper suggestion onto the public type.
func convertSuggestion(sug core.StepSuggestion) Suggestion {
	return Suggestion{Index: sug.Index, Name: sug.Name, Step: sug.Step, Seq: sug.Seq, Done: sug.Done}
}

// Observe records the measurement of a pending suggestion; the optimizer
// takes it in at the next Next, NextBatch or Abort. The index must match;
// out.Metrics may be nil when low-level metrics are unavailable
// (Augmented BO requires them, like in a batch search).
func (a *Advisor) Observe(index int, out Outcome) error {
	var metrics lowlevel.Vector
	if out.Metrics != nil {
		var err error
		metrics, err = lowlevel.FromSlice(out.Metrics)
		if err != nil {
			return fmt.Errorf("arrow: observation for candidate %d has a bad metric vector: %w", index, err)
		}
	}
	return a.convertStepErr(a.stepper.Observe(index, core.Outcome{
		TimeSec: out.TimeSec,
		CostUSD: out.CostUSD,
		Metrics: metrics,
	}, nil))
}

// ObserveFailure reports that measuring the pending suggestion failed.
// The advisor quarantines the candidate and plans around it, exactly as
// a batch search does when Target.Measure errors. cause may be nil.
func (a *Advisor) ObserveFailure(index int, cause error) error {
	if cause == nil {
		cause = errors.New("measurement failed")
	}
	return a.convertStepErr(a.stepper.Observe(index, core.Outcome{}, cause))
}

// Done reports whether the search has finished and Result is ready. It
// changes only inside Next, NextBatch or Abort, never at an Observe.
func (a *Advisor) Done() bool { return a.stepper.Done() }

// Result returns the finished search outcome, converted exactly as
// Search would: before the search ends it returns ErrSearchRunning;
// after an abort it returns the salvaged Partial result alongside the
// abort error.
func (a *Advisor) Result() (*Result, error) {
	res, err := a.stepper.Result()
	if errors.Is(err, core.ErrStepperRunning) {
		return nil, ErrSearchRunning
	}
	if res == nil {
		return nil, err
	}
	return convertResult(res, a.cat), err
}

// Abort ends the session now, salvaging a Partial result that keeps
// every delivered observation (the same path SearchContext cancellation
// takes): an observation of the suggestion Next returned counts, one of
// a batch's other suggestions the optimizer has not asked for yet does
// not. It blocks until the search loop has finalized. Aborting a
// finished advisor returns the finished result unchanged.
func (a *Advisor) Abort(cause error) (*Result, error) {
	res, err := a.stepper.Abort(cause)
	if res == nil {
		return nil, err
	}
	return convertResult(res, a.cat), err
}

// NumCandidates returns the session's catalog size.
func (a *Advisor) NumCandidates() int { return a.cat.NumCandidates() }

// convertStepErr maps internal stepper errors onto the public sentinels.
func (a *Advisor) convertStepErr(err error) error {
	switch {
	case errors.Is(err, core.ErrNoPendingSuggestion):
		return ErrNoPendingSuggestion
	case errors.Is(err, core.ErrSuggestionMismatch):
		return fmt.Errorf("%w: %v", ErrSuggestionMismatch, err)
	}
	return err
}

// advisorCatalog is the advisor's candidate table. It implements
// core.Catalog for the stepper and the name-lookup part of Target for
// convertResult; Measure must never be called.
type advisorCatalog struct {
	names    []string
	features [][]float64
}

var _ core.Catalog = (*advisorCatalog)(nil)
var _ Target = (*advisorCatalog)(nil)

func (c *advisorCatalog) NumCandidates() int       { return len(c.names) }
func (c *advisorCatalog) Features(i int) []float64 { return c.features[i] }
func (c *advisorCatalog) Name(i int) string        { return c.names[i] }

func (c *advisorCatalog) Measure(int) (Outcome, error) {
	return Outcome{}, errors.New("arrow: advisor catalogs cannot measure")
}
