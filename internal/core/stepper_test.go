package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// driveStepper plays a full advisor session against a fakeTarget's data:
// every suggestion is answered with the target's own outcome, so the
// session sees exactly what a batch search over the target would.
func driveStepper(t *testing.T, s *Stepper, target *fakeTarget) {
	t.Helper()
	for {
		sug, err := s.Next(context.Background())
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if sug.Done {
			return
		}
		out, merr := target.Measure(sug.Index)
		if err := s.Observe(sug.Index, out, merr); err != nil {
			t.Fatalf("Observe(%d): %v", sug.Index, err)
		}
	}
}

func TestStepperMatchesBatchSearchAllOptimizers(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 7, false) {
		t.Run(name, func(t *testing.T) {
			batch := newFakeTarget(exhaustiveValues())
			want, err := opt.Search(batch)
			if err != nil {
				t.Fatalf("batch Search: %v", err)
			}

			stepTarget := newFakeTarget(exhaustiveValues())
			s := NewStepper(opt, stepTarget)
			driveStepper(t, s, stepTarget)
			got, err := s.Result()
			if err != nil {
				t.Fatalf("Result: %v", err)
			}

			if got.BestIndex != want.BestIndex || got.BestValue != want.BestValue {
				t.Errorf("best = (%d, %v), batch got (%d, %v)", got.BestIndex, got.BestValue, want.BestIndex, want.BestValue)
			}
			if !reflect.DeepEqual(got.Observations, want.Observations) {
				t.Errorf("observations diverge:\n step: %+v\nbatch: %+v", got.Observations, want.Observations)
			}
			if got.StoppedEarly != want.StoppedEarly {
				t.Errorf("StoppedEarly = %v, batch %v", got.StoppedEarly, want.StoppedEarly)
			}
			if !reflect.DeepEqual(stepTarget.measured, batch.measured) {
				t.Errorf("measurement order diverges:\n step: %v\nbatch: %v", stepTarget.measured, batch.measured)
			}
		})
	}
}

func TestStepperNextIsIdempotentWhilePending(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)
	defer s.Abort(nil)

	first, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		again, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("repeated Next = %+v, want %+v", again, first)
		}
	}
}

func TestStepperConcurrentNextReturnsOneSuggestion(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)
	defer s.Abort(nil)

	const callers = 8
	got := make([]StepSuggestion, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sug, err := s.Next(context.Background())
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			got[i] = sug
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d saw %+v, caller 0 saw %+v", i, got[i], got[0])
		}
	}
}

func TestStepperObserveWithoutPending(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)
	defer s.Abort(nil)

	if err := s.Observe(0, Outcome{TimeSec: 1, CostUSD: 1}, nil); !errors.Is(err, ErrNoPendingSuggestion) {
		t.Fatalf("Observe before Next = %v, want ErrNoPendingSuggestion", err)
	}

	sug, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, _ := target.Measure(sug.Index)
	if err := s.Observe(sug.Index, out, nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery of the same suggestion.
	if err := s.Observe(sug.Index, out, nil); !errors.Is(err, ErrNoPendingSuggestion) {
		t.Fatalf("duplicate Observe = %v, want ErrNoPendingSuggestion", err)
	}
}

func TestStepperObserveIndexMismatch(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)
	defer s.Abort(nil)

	sug, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wrong := (sug.Index + 1) % target.NumCandidates()
	if err := s.Observe(wrong, Outcome{TimeSec: 1, CostUSD: 1}, nil); !errors.Is(err, ErrSuggestionMismatch) {
		t.Fatalf("mismatched Observe = %v, want ErrSuggestionMismatch", err)
	}
	// The pending suggestion survives a rejected observation.
	again, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again != sug {
		t.Fatalf("pending lost after rejected Observe: %+v != %+v", again, sug)
	}
}

func TestStepperResultBeforeDone(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStepper(opt, newFakeTarget(exhaustiveValues()))
	defer s.Abort(nil)

	if _, err := s.Result(); !errors.Is(err, ErrStepperRunning) {
		t.Fatalf("Result before done = %v, want ErrStepperRunning", err)
	}
	if s.Done() {
		t.Fatal("Done before any step")
	}
}

func TestStepperAbortSalvagesPartialResult(t *testing.T) {
	opt, err := NewAugmentedBO(AugmentedBOConfig{Objective: MinimizeTime, Seed: 2, DeltaThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)

	// Deliver three observations, then abort mid-search.
	for range 3 {
		sug, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out, _ := target.Measure(sug.Index)
		if err := s.Observe(sug.Index, out, nil); err != nil {
			t.Fatal(err)
		}
	}
	cause := errors.New("operator pulled the plug")
	res, err := s.Abort(cause)
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("Abort err = %v, want wrapped cause", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("Abort result = %+v, want salvaged Partial", res)
	}
	if res.NumMeasurements() != 3 {
		t.Errorf("salvaged %d observations, want 3", res.NumMeasurements())
	}
	// Post-abort the stepper is terminal: Next reports Done, Observe
	// rejects, Result repeats the salvage.
	sug, err := s.Next(context.Background())
	if err != nil || !sug.Done {
		t.Fatalf("Next after abort = %+v, %v; want Done", sug, err)
	}
	if err := s.Observe(0, Outcome{}, nil); !errors.Is(err, ErrNoPendingSuggestion) {
		t.Fatalf("Observe after abort = %v, want ErrNoPendingSuggestion", err)
	}
	res2, err2 := s.Result()
	if res2 != res || !errors.Is(err2, cause) {
		t.Fatalf("Result after abort = %+v, %v", res2, err2)
	}
}

func TestStepperAbortWithPendingSuggestion(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)

	if _, err := s.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := s.Abort(nil)
		if err == nil || !errors.Is(err, ErrStepperAborted) {
			t.Errorf("Abort err = %v, want ErrStepperAborted", err)
		}
		if res == nil || !res.Partial {
			t.Errorf("Abort result = %+v, want Partial", res)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort deadlocked with a pending suggestion")
	}
}

func TestStepperAbortAfterFinishReturnsFinishedResult(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)
	driveStepper(t, s, target)

	res, err := s.Abort(errors.New("too late"))
	if err != nil {
		t.Fatalf("Abort after finish err = %v", err)
	}
	if res == nil || res.Partial {
		t.Fatalf("Abort after finish = %+v, want the complete result", res)
	}
}

func TestStepperObserveFailureQuarantines(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)

	failed := -1
	for {
		sug, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sug.Done {
			break
		}
		if failed == -1 {
			failed = sug.Index
			if err := s.Observe(sug.Index, Outcome{}, errors.New("injected measurement failure")); err != nil {
				t.Fatal(err)
			}
			continue
		}
		out, _ := target.Measure(sug.Index)
		if err := s.Observe(sug.Index, out, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.NumMeasurements() != target.NumCandidates()-1 {
		t.Errorf("measured %d, want %d (failed candidate quarantined)", res.NumMeasurements(), target.NumCandidates()-1)
	}
	for _, obs := range res.Observations {
		if obs.Index == failed {
			t.Errorf("quarantined candidate %d appears in observations", failed)
		}
	}
	if len(res.Failures) != 1 || res.Failures[0].Index != failed {
		t.Errorf("failures = %+v, want exactly candidate %d", res.Failures, failed)
	}
}

// TestStepperConcurrentBatchObserveScriptAbort drives one stepper from
// several goroutines at once — batches, observations of heads and
// fantasies, script exports — and aborts it mid-search. Under -race it
// checks that plan hooks and script copies never run beside the search
// loop, and that no interleaving of them with Observe and Abort
// deadlocks.
func TestStepperConcurrentBatchObserveScriptAbort(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 11, true) {
		t.Run(name, func(t *testing.T) {
			s := NewStepper(opt, newFakeTarget(exhaustiveValues()))
			var (
				wg        sync.WaitGroup
				observed  atomic.Int64
				abortOnce sync.Once
				abortNow  = make(chan struct{})
			)
			for range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each caller measures through its own fake, whose
					// measurement log is not shared.
					target := newFakeTarget(exhaustiveValues())
					for !s.Done() {
						sugs, err := s.NextBatch(context.Background(), 3)
						if err != nil {
							t.Errorf("NextBatch: %v", err)
							return
						}
						for _, sug := range sugs {
							if sug.Done {
								abortOnce.Do(func() { close(abortNow) })
								return
							}
							out, merr := target.Measure(sug.Index)
							// Another caller may have observed it first.
							if s.Observe(sug.Index, out, merr) == nil && observed.Add(1) == 4 {
								abortOnce.Do(func() { close(abortNow) })
							}
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !s.Done() {
					s.Script()
				}
			}()

			select {
			case <-abortNow:
			case <-time.After(30 * time.Second):
				t.Fatal("no caller got four observations accepted")
			}
			if res, _ := s.Abort(nil); res == nil {
				t.Error("Abort returned no result")
			}
			finished := make(chan struct{})
			go func() {
				wg.Wait()
				close(finished)
			}()
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("callers still blocked after Abort")
			}
		})
	}
}

// hookProbe is a minimal Optimizer whose plan hook blocks until
// released, so a test can hold a plan in flight and try to wake the
// loop under it. state is written by the loop after every measurement
// and on abort and read by the hook without synchronization of its own:
// only the stepper orders the two. With aborting set, the loop's abort
// path signals it and then waits for finalize before returning.
type hookProbe struct {
	state   int
	inHook  chan struct{}
	release chan struct{}
	sawHook int

	aborting, finalize chan struct{}
}

func (p *hookProbe) Name() string { return "hook-probe" }

func (p *hookProbe) Search(target Target) (*Result, error) {
	target.(PlanHookSetter).SetPlanHook(func(pending []PendingPoint, extra int) []int {
		p.inHook <- struct{}{}
		<-p.release
		p.sawHook = p.state
		return []int{len(pending)}
	})
	res := &Result{Method: p.Name(), BestIndex: -1}
	for i := 0; i < target.NumCandidates(); i++ {
		out, err := target.Measure(i)
		if err != nil {
			p.state = -1
			if p.aborting != nil {
				close(p.aborting)
				<-p.finalize
			}
			res.Partial = true
			return res, err
		}
		p.state = i + 1
		res.Observations = append(res.Observations, Observation{Index: i, Value: out.TimeSec, Outcome: out})
	}
	return res, nil
}

// TestStepperPlanHookHoldsLoopParked pins the one-planner contract: a
// plan hook runs on the NextBatch caller's goroutine while the loop is
// parked, and neither an Observe of the head nor an Abort may wake the
// loop until the hook returns. Under -race the probe's unsynchronized
// state also shows any overlap between hook and loop.
func TestStepperPlanHookHoldsLoopParked(t *testing.T) {
	for _, wake := range []string{"observe", "abort"} {
		t.Run(wake, func(t *testing.T) {
			p := &hookProbe{inHook: make(chan struct{}), release: make(chan struct{})}
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(p.release) }) }
			target := newFakeTarget(exhaustiveValues())
			s := NewStepper(p, target)
			defer s.Abort(nil)
			defer release() // before the Abort, which waits for the hook
			head, err := s.Next(context.Background())
			if err != nil || head.Index != 0 {
				t.Fatalf("Next = %+v, %v; want candidate 0", head, err)
			}

			batch := make(chan []StepSuggestion, 1)
			go func() {
				sugs, err := s.NextBatch(context.Background(), 2)
				if err != nil {
					t.Errorf("NextBatch: %v", err)
				}
				batch <- sugs
			}()
			<-p.inHook

			woke := make(chan struct{})
			go func() {
				defer close(woke)
				if wake == "observe" {
					out, merr := target.Measure(head.Index)
					if err := s.Observe(head.Index, out, merr); err != nil {
						t.Errorf("Observe(head): %v", err)
					}
					return
				}
				s.Abort(nil)
			}()
			select {
			case <-woke:
				t.Fatalf("%s returned while a plan hook held the loop parked", wake)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			if sugs := <-batch; len(sugs) != 2 || sugs[0] != head {
				t.Fatalf("batch = %+v, want the head plus one planned pick", sugs)
			}
			<-woke
			if p.sawHook != 0 {
				t.Errorf("the hook saw loop state %d, want 0: the loop ran under it", p.sawHook)
			}
		})
	}
}

// TestStepperNextBatchWaitsOutAbort: once Abort has woken the loop, the
// head it leaves behind is not a parked loop. A NextBatch racing the
// loop's abort path must wait for the search to end and report Done,
// never run a plan hook beside it.
func TestStepperNextBatchWaitsOutAbort(t *testing.T) {
	p := &hookProbe{
		inHook:   make(chan struct{}, 1),
		release:  make(chan struct{}),
		aborting: make(chan struct{}),
		finalize: make(chan struct{}),
	}
	close(p.release)
	var finalizeOnce sync.Once
	finalize := func() { finalizeOnce.Do(func() { close(p.finalize) }) }
	defer finalize()
	s := NewStepper(p, newFakeTarget(exhaustiveValues()))
	if _, err := s.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	aborted := make(chan struct{})
	go func() {
		defer close(aborted)
		s.Abort(nil)
	}()
	<-p.aborting

	batch := make(chan []StepSuggestion, 1)
	go func() {
		sugs, err := s.NextBatch(context.Background(), 2)
		if err != nil {
			t.Errorf("NextBatch: %v", err)
		}
		batch <- sugs
	}()
	select {
	case sugs := <-batch:
		t.Fatalf("NextBatch returned %+v while the loop was still aborting", sugs)
	case <-time.After(50 * time.Millisecond):
	}
	finalize()
	if sugs := <-batch; len(sugs) != 1 || !sugs[0].Done {
		t.Fatalf("NextBatch after abort = %+v, want a lone Done", sugs)
	}
	<-aborted
}

// TestStepperObserveLeavesLoopParked: Observe only records an outcome,
// and Script only copies the decision script. The loop stays where the
// last Next left it — the probe's state counts the measurements the loop
// has taken in, and is read here without synchronization of its own —
// until the next Next hands the outcome over.
func TestStepperObserveLeavesLoopParked(t *testing.T) {
	p := &hookProbe{}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(p, target)
	defer s.Abort(nil)
	for i := range 3 {
		sug, err := s.Next(context.Background())
		if err != nil || sug.Index != i {
			t.Fatalf("Next = %+v, %v; want candidate %d", sug, err, i)
		}
		out, merr := target.Measure(i)
		if err := s.Observe(i, out, merr); err != nil {
			t.Fatal(err)
		}
		s.Script()
		if p.state != i {
			t.Fatalf("after Observe(%d) and Script the loop's state is %d, want %d: the loop ran", i, p.state, i)
		}
	}
}

// TestStepperCancelledNextDoesNotResume: a Next whose ctx is already
// cancelled returns context.Canceled before it resumes the loop, which
// stays where it was, and a later Next carries on: with a cancelled Next
// after every observation, the session still ends in the uninterrupted
// search's result.
func TestStepperCancelledNextDoesNotResume(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	p := &hookProbe{}
	target := newFakeTarget(exhaustiveValues())
	probe := NewStepper(p, target)
	defer probe.Abort(nil)
	if _, err := probe.Next(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next with a cancelled ctx before the search started = %v, want context.Canceled", err)
	}
	sug, err := probe.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, merr := target.Measure(sug.Index)
	if err := probe.Observe(sug.Index, out, merr); err != nil {
		t.Fatal(err)
	}
	probe.Script()
	if _, err := probe.Next(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next with a cancelled ctx = %v, want context.Canceled", err)
	}
	if p.state != 0 {
		t.Fatalf("the loop's state is %d after a cancelled Next, want 0: it resumed", p.state)
	}

	for name, opt := range allOptimizers(t, MinimizeTime, 5, false) {
		t.Run(name, func(t *testing.T) {
			want, err := opt.Search(newFakeTarget(exhaustiveValues()))
			if err != nil {
				t.Fatal(err)
			}
			target := newFakeTarget(exhaustiveValues())
			s := NewStepper(opt, target)
			for {
				sug, err := s.Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if sug.Done {
					break
				}
				out, merr := target.Measure(sug.Index)
				if err := s.Observe(sug.Index, out, merr); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Next(cancelled); !errors.Is(err, context.Canceled) {
					t.Fatalf("Next with a cancelled ctx = %v, want context.Canceled", err)
				}
			}
			got, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Observations, want.Observations) || got.BestIndex != want.BestIndex {
				t.Errorf("result after cancelled Nexts diverged:\n got %+v\nwant %+v", got.Observations, want.Observations)
			}
		})
	}
}

// TestStepperDoneChangesOnlyInNext: no Observe finishes the search, the
// final one included, and neither does a Script after it. Done stays
// false and Result running until the Next that hands the last outcome to
// the loop finds the search over.
func TestStepperDoneChangesOnlyInNext(t *testing.T) {
	opt, err := NewRandomSearch(RandomSearchConfig{Objective: MinimizeTime, Seed: 2, MaxMeasurements: 4})
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(exhaustiveValues())
	s := NewStepper(opt, target)
	for step := 0; ; step++ {
		sug, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sug.Done {
			if step != 4 || !s.Done() {
				t.Fatalf("Done after %d observations, Done() = %v; want 4 and true", step, s.Done())
			}
			break
		}
		out, merr := target.Measure(sug.Index)
		if err := s.Observe(sug.Index, out, merr); err != nil {
			t.Fatal(err)
		}
		s.Script()
		if s.Done() {
			t.Fatalf("Done after Observe %d, before any Next handed it over", step+1)
		}
		if _, err := s.Result(); !errors.Is(err, ErrStepperRunning) {
			t.Fatalf("Result after Observe %d = %v, want ErrStepperRunning", step+1, err)
		}
	}
	if res, err := s.Result(); err != nil || res.NumMeasurements() != 4 {
		t.Fatalf("Result = %+v, %v; want the 4-measurement search", res, err)
	}
}
