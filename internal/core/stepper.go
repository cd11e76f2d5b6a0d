package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// This file inverts the optimizer control flow. Every Optimizer pulls
// measurements from a Target inside its own loop; a Stepper turns that
// loop inside out into a step-wise advisor state machine — Next asks
// "which candidate should be measured?", Observe delivers the caller's
// measurement — without forking the search loops. The loops stay the
// single source of truth: the Stepper runs the unmodified Optimizer in a
// goroutine against a channel-backed Target whose Measure blocks until
// the caller observes, so a step-driven search is the same code path as
// a batch search and produces the same result and trace for the same
// seed and observations, by construction.
//
// NextBatch extends the protocol to k concurrent suggestions without
// touching the loops: the loop still realizes one suggestion at a time
// (the head), and the remaining k-1 come from the optimizer's plan hook —
// a fantasization pass that asks "assuming the pending points come back
// as imputed, what would you measure next?". Fantasy suggestions are
// provisional: when the loop's next real suggestion matches one, the
// fantasy is promoted; observations for fantasies are held until the
// loop demands the candidate, so delivery to the loop always happens in
// loop order and the final Result is a deterministic function of the
// {index -> outcome} map regardless of the caller's observe order.

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
	// catalog, or abort) and Result will not block.
	Done bool
}

// PendingPoint describes one outstanding suggestion to a plan hook:
// the candidate index, and — when the caller has already observed it
// out of order — the real outcome to fantasize with instead of an
// imputed one.
type PendingPoint struct {
	Index    int
	Observed bool
	Outcome  Outcome
	Failed   bool
}

// PlanHook is an optimizer's fantasization entry point: given the
// outstanding suggestions, return up to extra additional candidate
// indices to suggest speculatively. Hooks run on the NextBatch caller's
// goroutine while the search loop is held parked on its head suggestion
// (never concurrently with the loop), must not emit trace events, and
// must leave the search state exactly as found.
type PlanHook func(pending []PendingPoint, extra int) []int

// PlanHookSetter is implemented by targets that support batch planning;
// optimizers install their hook at Search start when available.
type PlanHookSetter interface {
	SetPlanHook(PlanHook)
}

// ErrStepperRunning reports a Result call before the search finished.
var ErrStepperRunning = errors.New("core: search still running; result not ready")

// ErrNoPendingSuggestion reports an Observe with no suggestion to
// observe: either Next was never called, the previous suggestion was
// already observed, or the search already finished.
var ErrNoPendingSuggestion = errors.New("core: no pending suggestion to observe")

// ErrSuggestionMismatch reports an Observe whose candidate index does
// not match any pending suggestion.
var ErrSuggestionMismatch = errors.New("core: observation does not match the pending suggestion")

// ErrStepperAborted is the default abort cause.
var ErrStepperAborted = errors.New("core: stepper aborted")

// ErrBadBatchSize reports a NextBatch call with k < 1.
var ErrBadBatchSize = errors.New("core: batch size must be at least 1")

// stepObs is one delivered measurement: an outcome or a measurement
// error (a non-fatal error quarantines the candidate, exactly as a
// failing Target.Measure would in a batch search).
type stepObs struct {
	out Outcome
	err error
}

// pendingPoint is one outstanding suggestion: the loop-realized head or
// a planner fantasy, plus the caller's observation when it arrived before
// the loop demanded the candidate.
type pendingPoint struct {
	sug      StepSuggestion
	observed bool
	obs      stepObs
}

// Stepper drives one Optimizer step by step. Construct with NewStepper;
// all methods are safe for concurrent use. The expected cycle is
// Next -> Observe -> Next -> ... -> Next returns Done -> Result. Next is
// idempotent while a suggestion is pending (concurrent or repeated calls
// return the same suggestion), and Observe rejects duplicates, index
// mismatches, and delivery after the search ended. NextBatch(k) widens
// the window to k outstanding suggestions, each observable out of order
// by candidate index.
type Stepper struct {
	cat Catalog

	suggCh  chan int      // unbuffered: loop's Measure blocks until Next receives
	obsCh   chan stepObs  // unbuffered: delivery blocks until the loop receives
	abortCh chan struct{} // closed by Abort; unblocks the loop's Measure
	doneCh  chan struct{} // closed when the search goroutine finished

	abortOnce sync.Once
	cause     error // abort cause, written once before abortCh closes

	// wakeMu guards the two calls that wake the loop once it is parked
	// on its head suggestion: Observe handing the head over obsCh and
	// Abort closing abortCh. Holding it while the head is outstanding
	// keeps the loop parked, so plan hooks and Script run beside it.
	wakeMu sync.Mutex

	mu        sync.Mutex
	nextMu    sync.Mutex // serializes Next/NextBatch/Script and absorb
	head      *pendingPoint
	fantasies []*pendingPoint
	seq       int // next suggestion ordinal
	hook      PlanHook
	delivered int // observations delivered so far (accepted or not)
	res       *Result
	err       error

	// resume is the decision script: recorded live, consumed on a
	// snapshot resume. The loop and plan hooks touch it, never at once;
	// Script copies it with the loop parked.
	resume *resumeState
}

// NewStepper starts the optimizer's search loop against cat and returns
// the stepper driving it. The loop runs in its own goroutine but only
// ever advances inside Next/Observe/Abort calls — between calls it is
// parked on a channel, so an idle Stepper costs one blocked goroutine.
// Callers that abandon a Stepper must call Abort to release it.
func NewStepper(opt Optimizer, cat Catalog) *Stepper {
	return newStepper(opt, cat, ResumeScript{})
}

// ResumeStepper starts the search loop with a recorded decision script:
// while the script lasts, the loops take their selections from it
// instead of refitting surrogates, which makes replaying a journaled
// suggest/observe prefix cheap. Once the script is exhausted the
// stepper behaves — and keeps recording — exactly like a live one. The
// caller must feed back precisely the suggest/observe sequence the
// script was recorded under; any divergence surfaces as a suggestion
// mismatch in the replay's assertions.
func ResumeStepper(opt Optimizer, cat Catalog, script ResumeScript) *Stepper {
	return newStepper(opt, cat, script)
}

func newStepper(opt Optimizer, cat Catalog, script ResumeScript) *Stepper {
	s := &Stepper{
		cat:     cat,
		suggCh:  make(chan int),
		obsCh:   make(chan stepObs),
		abortCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		resume:  newResumeState(script),
	}
	go func() {
		res, err := opt.Search(&stepperTarget{cat: cat, s: s})
		s.mu.Lock()
		s.res, s.err = res, err
		s.mu.Unlock()
		close(s.doneCh)
	}()
	return s
}

// Script exports a copy of the decision script recorded so far. It is
// meant for the moments the loop is parked on a pending suggestion (the
// state after Next or NextBatch returned a non-Done suggestion) or the
// search has finished; called mid-computation it waits until the loop
// parks on its next suggestion. The serve layer calls it right after
// journaling a suggest record, when the loop is parked by construction.
func (s *Stepper) Script() ResumeScript {
	s.nextMu.Lock()
	defer s.nextMu.Unlock()
	for {
		if _, done, _ := s.ensureHead(nil); done {
			// The loop exited; nothing mutates the script anymore.
			return s.resume.script.clone()
		}
		if s.lockParked() {
			s.mu.Unlock()
			defer s.wakeMu.Unlock()
			return s.resume.script.clone()
		}
	}
}

// Next returns the candidate the search wants measured next, blocking
// while the optimizer computes (surrogate fit + acquisition pass — not
// a measurement; those are the caller's). While a suggestion is pending
// it returns that same suggestion immediately. When the search has
// finished it returns a Done suggestion. ctx bounds the wait; a nil ctx
// means no deadline.
func (s *Stepper) Next(ctx context.Context) (StepSuggestion, error) {
	s.nextMu.Lock()
	defer s.nextMu.Unlock()
	sug, _, err := s.ensureHead(ctx)
	return sug, err
}

// NextBatch returns up to k concurrent suggestions: every currently
// outstanding (unobserved) suggestion, topped up with speculative picks
// from the optimizer's plan hook. It is idempotent — calling it again
// without observing returns the same suggestions (possibly more than k
// when earlier calls asked for a larger batch) — and NextBatch(ctx, 1)
// is exactly Next. The batch may be shorter than k when the optimizer
// has no plan hook, the measurement budget or catalog is nearly
// exhausted, or the search finished (a lone Done suggestion). Each
// suggestion is observed independently via Observe, in any order.
func (s *Stepper) NextBatch(ctx context.Context, k int) ([]StepSuggestion, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadBatchSize, k)
	}
	s.nextMu.Lock()
	defer s.nextMu.Unlock()
	for {
		sug, done, err := s.ensureHead(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			return []StepSuggestion{sug}, nil
		}
		if s.lockParked() {
			break
		}
		// A concurrent Observe handed the head over first, or Abort
		// cleared it; wait for the loop's next suggestion (or its end).
	}
	defer s.wakeMu.Unlock()

	outstanding := make([]StepSuggestion, 0, 1+len(s.fantasies))
	outstanding = append(outstanding, s.head.sug)
	for _, p := range s.fantasies {
		if !p.observed {
			outstanding = append(outstanding, p.sug)
		}
	}
	hook := s.hook
	extra := k - len(outstanding)
	if extra <= 0 || hook == nil {
		s.mu.Unlock()
		return outstanding, nil
	}
	pending := make([]PendingPoint, 0, 1+len(s.fantasies))
	pending = append(pending, PendingPoint{Index: s.head.sug.Index})
	for _, p := range s.fantasies {
		pp := PendingPoint{Index: p.sug.Index, Observed: p.observed}
		if p.observed {
			pp.Outcome = p.obs.out
			pp.Failed = p.obs.err != nil
		}
		pending = append(pending, pp)
	}
	s.mu.Unlock()

	idxs := hook(pending, extra)
	s.mu.Lock()
	for _, idx := range idxs {
		fsug := StepSuggestion{
			Index: idx,
			Name:  s.cat.Name(idx),
			Step:  s.delivered + 1 + len(s.fantasies),
			Seq:   s.seq,
		}
		s.seq++
		s.fantasies = append(s.fantasies, &pendingPoint{sug: fsug})
		outstanding = append(outstanding, fsug)
	}
	s.mu.Unlock()
	return outstanding, nil
}

// lockParked takes wakeMu and mu and, if the loop is still parked on its
// head suggestion, keeps both and reports true; an Observe that clears
// the head later still waits on wakeMu to hand it over. Callers hold
// nextMu, so absorb cannot install a new head meanwhile.
func (s *Stepper) lockParked() bool {
	s.wakeMu.Lock()
	s.mu.Lock()
	if s.head != nil {
		return true
	}
	s.mu.Unlock()
	s.wakeMu.Unlock()
	return false
}

// ensureHead blocks until a loop-realized suggestion is outstanding (or
// the search is done / ctx expires) and returns it. Callers hold nextMu.
func (s *Stepper) ensureHead(ctx context.Context) (StepSuggestion, bool, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		s.mu.Lock()
		if s.head != nil {
			sug := s.head.sug
			s.mu.Unlock()
			return sug, false, nil
		}
		s.mu.Unlock()
		select {
		case idx := <-s.suggCh:
			s.absorb(idx)
		case <-s.doneCh:
			return StepSuggestion{Index: -1, Done: true, Step: s.deliveredCount()}, true, nil
		case <-ctxDone:
			return StepSuggestion{}, false, ctx.Err()
		}
	}
}

// absorb routes a suggestion the loop just emitted: a matching fantasy is
// promoted to head (keeping the provisional suggestion the caller already
// saw) — or, when the caller observed it out of order, its held outcome
// is delivered straight back to the loop. An unanticipated index becomes
// a fresh head. Callers hold nextMu, which is what keeps this hand-off
// from racing a plan hook or Script without taking wakeMu.
func (s *Stepper) absorb(idx int) {
	s.mu.Lock()
	select {
	case <-s.abortCh: // Abort cleared the suggestions; the loop ends itself
		s.mu.Unlock()
		return
	default:
	}
	for i, p := range s.fantasies {
		if p.sug.Index != idx {
			continue
		}
		s.fantasies = append(s.fantasies[:i], s.fantasies[i+1:]...)
		if p.observed {
			s.delivered++
			obs := p.obs
			s.mu.Unlock()
			// The loop just sent on suggCh, so it is parked on obsCh.
			select {
			case s.obsCh <- obs:
			case <-s.doneCh:
			}
			return
		}
		s.head = p
		s.mu.Unlock()
		return
	}
	sug := StepSuggestion{Index: idx, Name: s.cat.Name(idx), Step: s.delivered, Seq: s.seq}
	s.seq++
	s.head = &pendingPoint{sug: sug}
	s.mu.Unlock()
}

// Observe delivers the measurement for the suggested candidate index. A
// nil merr feeds the outcome to the search loop; a non-nil merr is
// treated exactly like a failing Target.Measure — the loop quarantines
// the candidate and continues (wrap with Fatal to abort the whole search
// instead). The index may be any outstanding suggestion: observing the
// head hands the outcome to the loop now (after any plan hook or Script
// copy holding the loop parked), observing a fantasy parks the outcome
// until the loop demands that candidate and never waits. Observing an
// index with no outstanding suggestion returns ErrNoPendingSuggestion
// (never asked, already observed, search done) or ErrSuggestionMismatch
// (a different suggestion is pending).
func (s *Stepper) Observe(index int, out Outcome, merr error) error {
	s.mu.Lock()
	if s.head != nil && s.head.sug.Index == index {
		s.head = nil
		s.delivered++
		s.mu.Unlock()
		// The loop is parked on obsCh (or ending, closing doneCh), so
		// holding wakeMu across the hand-off cannot block for long.
		s.wakeMu.Lock()
		defer s.wakeMu.Unlock()
		select {
		case s.obsCh <- stepObs{out: out, err: merr}:
			return nil
		case <-s.doneCh:
			// The loop aborted between the suggestion and this delivery.
			return ErrNoPendingSuggestion
		}
	}
	for _, p := range s.fantasies {
		if p.sug.Index != index {
			continue
		}
		if p.observed {
			s.mu.Unlock()
			return ErrNoPendingSuggestion
		}
		// Park the outcome; it reaches the loop when the loop suggests
		// this candidate. Acceptance depends only on the outstanding set
		// — a deterministic function of the delivered history — so a
		// journal replay of the same calls accepts identically.
		p.observed = true
		p.obs = stepObs{out: out, err: merr}
		s.mu.Unlock()
		return nil
	}
	if s.head != nil {
		want := s.head.sug.Index
		s.mu.Unlock()
		return fmt.Errorf("%w: got candidate %d, candidate %d is pending", ErrSuggestionMismatch, index, want)
	}
	s.mu.Unlock()
	return ErrNoPendingSuggestion
}

// Done reports whether the search has finished and Result is ready.
func (s *Stepper) Done() bool {
	select {
	case <-s.doneCh:
		return true
	default:
		return false
	}
}

// Result returns the finished search outcome. Before the search ends it
// returns ErrStepperRunning; afterwards it returns exactly what the
// underlying Optimizer.Search returned — including a Partial result
// alongside a non-nil error when the search was aborted, the PR 1
// salvage contract.
func (s *Stepper) Result() (*Result, error) {
	if !s.Done() {
		return nil, ErrStepperRunning
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// Abort ends the search now: the loop's pending measurement (or its next
// one) fails with a Fatal-marked cause, driving the optimizer's abort
// path to a Partial result that keeps every delivered observation. Abort
// blocks until the loop has finalized and returns the salvaged result.
// Aborting a finished stepper just returns the finished result. cause
// may be nil (ErrStepperAborted is used).
func (s *Stepper) Abort(cause error) (*Result, error) {
	if cause == nil {
		cause = ErrStepperAborted
	}
	s.wakeMu.Lock()
	s.mu.Lock()
	s.abortOnce.Do(func() {
		s.cause = cause
		close(s.abortCh)
	})
	// Nothing outstanding can be observed now; absorb adds no head after.
	s.head = nil
	s.fantasies = nil
	s.mu.Unlock()
	s.wakeMu.Unlock()
	<-s.doneCh
	return s.Result()
}

// deliveredCount reads the delivery counter under the lock.
func (s *Stepper) deliveredCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// stepperTarget is the channel-backed Target the search loop runs
// against: Measure publishes the candidate as a suggestion and blocks
// until the caller observes (or aborts).
type stepperTarget struct {
	cat Catalog
	s   *Stepper
}

var (
	_ Target         = (*stepperTarget)(nil)
	_ PlanHookSetter = (*stepperTarget)(nil)
)

func (t *stepperTarget) NumCandidates() int       { return t.cat.NumCandidates() }
func (t *stepperTarget) Features(i int) []float64 { return t.cat.Features(i) }
func (t *stepperTarget) Name(i int) string        { return t.cat.Name(i) }

// SetPlanHook installs the optimizer's fantasization hook. Optimizers
// call it once at Search start; it may be called again on a phase
// switch. The hook is wrapped through the resume state so batch plans
// are consumed from a resumed script (or recorded into a live one);
// hooks run only while the loop is held parked, so the two never touch
// that state at once.
func (t *stepperTarget) SetPlanHook(h PlanHook) {
	wrapped := h
	if h != nil {
		rs := t.s.resume
		wrapped = func(pending []PendingPoint, extra int) []int {
			return rs.plan(pending, extra, h)
		}
	}
	t.s.mu.Lock()
	t.s.hook = wrapped
	t.s.mu.Unlock()
}

// resumeState implements resumeCarrier: newSearchState picks the script
// cursor up from here so the search loops can consume and record
// decisions.
func (t *stepperTarget) resumeState() *resumeState { return t.s.resume }

func (t *stepperTarget) Measure(i int) (Outcome, error) {
	select {
	case t.s.suggCh <- i:
	case <-t.s.abortCh:
		return Outcome{}, &fatalError{err: t.s.cause}
	}
	select {
	case m := <-t.s.obsCh:
		return m.out, m.err
	case <-t.s.abortCh:
		return Outcome{}, &fatalError{err: t.s.cause}
	}
}
