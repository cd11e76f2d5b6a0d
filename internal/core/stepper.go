package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file inverts the optimizer control flow. A Stepper turns an
// Optimizer's search loop inside out into a step-wise advisor — Next asks
// "which candidate should be measured?", Observe delivers the caller's
// measurement — by running the unmodified loop in a goroutine against a
// channel-backed Target, so a step-driven search produces the same result
// and trace as a batch search for the same seed and observations.
//
// The loop is its callers' coroutine: it advances only while a caller
// holding the Stepper's one mutex waits inside Next, NextBatch or Abort,
// having handed it an outcome over one unbuffered channel and waiting on
// the other for its next Measure or its end. Between calls it is parked
// in Measure, and Observe only records an outcome for the next hand-off,
// so plan hooks and Script, run under the mutex, find it parked.
//
// NextBatch widens the window to k suggestions: the loop still realizes
// one at a time (the head), and the rest are fantasies from the
// optimizer's plan hook. When the loop asks for a fantasy's candidate the
// fantasy is promoted, and an outcome observed for it out of order is
// handed over then, so delivery happens in loop order and the Result is
// a function of the {index -> outcome} map, whatever the observe order.

// StepSuggestion is one advisor step: the candidate the search wants
// measured next, or Done when the search is over and the result is ready.
type StepSuggestion struct {
	// Index / Name identify the candidate to measure; Index is -1 when
	// Done is set.
	Index int
	Name  string
	// Step counts the observations delivered before this suggestion. For
	// batch suggestions the value is provisional: it assumes every
	// earlier outstanding suggestion is observed first.
	Step int
	// Seq is the monotonic issue ordinal of this suggestion within the
	// session, stable across Next/NextBatch retries — the key callers use
	// to deduplicate suggestions they have already seen.
	Seq int
	// Done reports that the search has finished (stop rule, exhausted
	// catalog, or abort) and Result is ready.
	Done bool
}

// PendingPoint describes one outstanding suggestion to a plan hook: the
// candidate index and, when the caller has already observed it out of
// order, the real outcome to fantasize with instead of an imputed one.
type PendingPoint struct {
	Index    int
	Observed bool
	Outcome  Outcome
	Failed   bool
}

// PlanHook is an optimizer's fantasization entry point: given the
// outstanding suggestions, return up to extra additional candidate
// indices to suggest speculatively. Hooks run on the NextBatch caller's
// goroutine while the search loop is parked on its head suggestion, must
// not emit trace events, and must leave the search state as found.
type PlanHook func(pending []PendingPoint, extra int) []int

// PlanHookSetter is implemented by targets that support batch planning;
// optimizers install their hook at Search start when available.
type PlanHookSetter interface {
	SetPlanHook(PlanHook)
}

var (
	// ErrStepperRunning reports a Result call before the search finished.
	ErrStepperRunning = errors.New("core: search still running; result not ready")
	// ErrNoPendingSuggestion reports an Observe with no suggestion to
	// observe: never asked, already observed, or the search is over.
	ErrNoPendingSuggestion = errors.New("core: no pending suggestion to observe")
	// ErrSuggestionMismatch reports an Observe whose candidate index does
	// not match any pending suggestion.
	ErrSuggestionMismatch = errors.New("core: observation does not match the pending suggestion")
	// ErrStepperAborted is the default abort cause.
	ErrStepperAborted = errors.New("core: stepper aborted")
	// ErrBadBatchSize reports a NextBatch call with k < 1.
	ErrBadBatchSize = errors.New("core: batch size must be at least 1")
)

// pendingPoint is one outstanding suggestion, the loop's head or a
// planner fantasy, with the caller's observation once it arrived: an
// outcome, or a measurement error the loop treats exactly as a failing
// Target.Measure in a batch search.
type pendingPoint struct {
	sug StepSuggestion
	PendingPoint
	err error
}

// Stepper drives one Optimizer step by step: Next -> Observe -> Next ->
// ... -> Next returns Done -> Result. Construct with NewStepper. All
// methods are safe for concurrent use; all but Done and Result wait
// while another caller's plan runs.
type Stepper struct {
	cat Catalog

	// The hand-off: a caller holding mu sends on obsCh (the first send
	// starts the search) and receives the loop's next Measure on suggCh,
	// which the loop closes when Search returns. The loop never takes mu,
	// so holding it across both cannot deadlock.
	obsCh  chan *pendingPoint
	suggCh chan int

	mu        sync.Mutex
	head      *pendingPoint // the parked loop's Measure; nil before the first hand-off and after the end
	fantasies []*pendingPoint
	seq       int      // next suggestion ordinal
	delivered int      // head outcomes accepted plus fantasy outcomes handed over: the next head's Step
	hook      PlanHook // written by the loop while a caller holds mu and waits on it

	// done is set by the caller that saw the loop end, after res and err
	// were written, so Done and Result never wait on mu.
	done atomic.Bool
	res  *Result
	err  error

	// resume is the decision script: recorded live, consumed on a
	// snapshot resume. The loop and plan hooks touch it, never at once.
	resume *resumeState
}

// NewStepper returns a stepper driving the optimizer's search loop
// against cat. The loop starts at the first Next, NextBatch or Abort, so
// an idle Stepper costs one blocked goroutine. Callers that abandon a
// Stepper must call Abort to release it.
func NewStepper(opt Optimizer, cat Catalog) *Stepper {
	return ResumeStepper(opt, cat, ResumeScript{})
}

// ResumeStepper is NewStepper with a recorded decision script: while it
// lasts, the loops take their selections from it instead of refitting
// surrogates, which makes replaying a journaled suggest/observe prefix
// cheap; after it, the stepper computes and records like a live one. The
// caller must replay the calls the script was recorded under.
func ResumeStepper(opt Optimizer, cat Catalog, script ResumeScript) *Stepper {
	s := &Stepper{
		cat:    cat,
		obsCh:  make(chan *pendingPoint),
		suggCh: make(chan int),
		resume: newResumeState(script),
	}
	go func() {
		<-s.obsCh
		s.res, s.err = opt.Search(&stepperTarget{Catalog: cat, s: s})
		close(s.suggCh)
	}()
	return s
}

// Script exports a copy of the decision script recorded so far: as of
// the last suggestion served, or of the search's end.
func (s *Stepper) Script() ResumeScript {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resume.script.clone()
}

// Next returns the candidate the search wants measured next: the head of
// NextBatch(ctx, 1). While a suggestion is pending it returns it again at
// once; otherwise it hands the loop the outcomes observed since and
// blocks while the optimizer computes (surrogate fit + acquisition pass,
// not a measurement). When the search has finished it returns Done. ctx
// is checked once, before the loop resumes: an expired ctx returns its
// error and leaves the loop where it was, and a plan once begun runs to
// its end. A nil ctx never expires.
func (s *Stepper) Next(ctx context.Context) (StepSuggestion, error) {
	sugs, err := s.NextBatch(ctx, 1)
	if err != nil {
		return StepSuggestion{}, err
	}
	return sugs[0], nil
}

// NextBatch returns up to k concurrent suggestions: the head and every
// other unobserved suggestion, topped up with speculative picks from the
// optimizer's plan hook. It is idempotent — calling it again without
// observing returns the same suggestions, possibly more than k when an
// earlier call asked for a larger batch. The batch may be shorter than k
// when the optimizer has no plan hook, the budget or catalog is nearly
// exhausted, or the search finished (a lone Done suggestion). ctx is
// checked as in Next.
func (s *Stepper) NextBatch(ctx context.Context, k int) ([]StepSuggestion, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadBatchSize, k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.advance(ctx); err != nil {
		return nil, err
	}
	if s.head == nil {
		return []StepSuggestion{{Index: -1, Done: true, Step: s.delivered}}, nil
	}
	outstanding := []StepSuggestion{s.head.sug}
	for _, p := range s.fantasies {
		if !p.Observed {
			outstanding = append(outstanding, p.sug)
		}
	}
	if k <= len(outstanding) || s.hook == nil {
		return outstanding, nil
	}
	pending := []PendingPoint{s.head.PendingPoint}
	for _, p := range s.fantasies {
		pending = append(pending, p.PendingPoint)
	}
	for _, idx := range s.resume.plan(pending, k-len(outstanding), s.hook) {
		p := s.suggest(idx, s.delivered+1+len(s.fantasies))
		s.fantasies = append(s.fantasies, p)
		outstanding = append(outstanding, p.sug)
	}
	return outstanding, nil
}

// advance runs the loop until it is parked on a suggestion nobody has
// observed, or has ended, handing it each observed outcome it asks for:
// the head's, then those of the fantasies it promotes. Callers hold mu.
func (s *Stepper) advance(ctx context.Context) error {
	if s.done.Load() || (s.head != nil && !s.head.Observed) {
		return nil
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	for {
		idx, ok := s.step(s.head)
		if !ok {
			s.head = nil
			return nil
		}
		i := slices.IndexFunc(s.fantasies, func(f *pendingPoint) bool { return f.Index == idx })
		if i < 0 {
			s.head = s.suggest(idx, s.delivered)
			return nil
		}
		s.head = s.fantasies[i]
		s.fantasies = slices.Delete(s.fantasies, i, i+1)
		if !s.head.Observed {
			return nil
		}
		s.delivered++
	}
}

// step hands p's outcome to the loop and waits for its next Measure; ok
// is false once the search has returned, which marks the stepper done.
func (s *Stepper) step(p *pendingPoint) (idx int, ok bool) {
	s.obsCh <- p
	if idx, ok = <-s.suggCh; !ok {
		s.done.Store(true)
	}
	return idx, ok
}

// suggest makes candidate idx the next suggestion, at the given step.
func (s *Stepper) suggest(idx, step int) *pendingPoint {
	sug := StepSuggestion{Index: idx, Name: s.cat.Name(idx), Step: step, Seq: s.seq}
	s.seq++
	return &pendingPoint{sug: sug, PendingPoint: PendingPoint{Index: idx}}
}

// Observe records the measurement for an outstanding suggestion, the
// head or a fantasy, for the loop to receive in loop order at the next
// Next, NextBatch or Abort. A non-nil merr is treated like a failing
// Target.Measure: the loop quarantines the candidate (wrap it with Fatal
// to abort the search instead). An index with no outstanding suggestion
// returns ErrNoPendingSuggestion, or ErrSuggestionMismatch while another
// suggestion is pending. Acceptance depends only on the calls so far, so
// a journal replay of the same calls accepts the same.
func (s *Stepper) Observe(index int, out Outcome, merr error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var p *pendingPoint
	i := slices.IndexFunc(s.fantasies, func(f *pendingPoint) bool { return f.Index == index })
	switch {
	case s.head != nil && s.head.Index == index:
		p = s.head
	case i >= 0:
		p = s.fantasies[i]
	case s.head != nil && !s.head.Observed:
		return fmt.Errorf("%w: got candidate %d, candidate %d is pending", ErrSuggestionMismatch, index, s.head.Index)
	}
	if p == nil || p.Observed {
		return ErrNoPendingSuggestion
	}
	if p == s.head {
		s.delivered++
	}
	p.Observed, p.Outcome, p.Failed, p.err = true, out, merr != nil, merr
	return nil
}

// Done reports whether the search has finished and Result is ready. It
// changes only inside Next, NextBatch or Abort, and never waits.
func (s *Stepper) Done() bool { return s.done.Load() }

// Result returns the finished search outcome. Before the search ends it
// returns ErrStepperRunning; afterwards it returns exactly what the
// underlying Optimizer.Search returned — including a Partial result
// alongside a non-nil error when the search was aborted, the PR 1
// salvage contract.
func (s *Stepper) Result() (*Result, error) {
	if !s.done.Load() {
		return nil, ErrStepperRunning
	}
	return s.res, s.err
}

// Abort ends the search now. A head outcome already observed reaches
// the loop first, as at the next Next; the loop's next measurement then
// fails with a Fatal-marked cause, driving the optimizer's abort path to
// a Partial result that keeps every delivered observation. Abort blocks
// until the loop has finalized and returns the salvaged result; aborting
// a finished stepper returns the finished result. A nil cause means
// ErrStepperAborted.
func (s *Stepper) Abort(cause error) (*Result, error) {
	if cause == nil {
		cause = ErrStepperAborted
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head != nil && s.head.Observed {
		s.step(s.head)
	}
	for fatal := (&pendingPoint{err: &fatalError{err: cause}}); !s.done.Load(); {
		s.step(fatal)
	}
	// Nothing outstanding can be observed now.
	s.head, s.fantasies = nil, nil
	return s.res, s.err
}

// stepperTarget is the channel-backed Target the search loop runs
// against: Measure publishes the candidate and blocks until the caller
// waiting on the loop hands back an outcome (or the abort).
type stepperTarget struct {
	Catalog
	s *Stepper
}

var _ PlanHookSetter = (*stepperTarget)(nil)

// SetPlanHook installs the optimizer's fantasization hook; NextBatch runs
// it through the resume state, which consumes a resumed script's plans
// and records live ones. Optimizers call it at Search start and on a
// phase switch, on the loop's goroutine while a caller holds the
// Stepper's mutex, so the loop's next hand-off orders the write before
// any plan reads it.
func (t *stepperTarget) SetPlanHook(h PlanHook) { t.s.hook = h }

// resumeState implements resumeCarrier, so the search loops consume and
// record decisions in the Stepper's script.
func (t *stepperTarget) resumeState() *resumeState { return t.s.resume }

func (t *stepperTarget) Measure(i int) (Outcome, error) {
	t.s.suggCh <- i
	p := <-t.s.obsCh
	return p.Outcome, p.err
}
