package arrow

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/study"
	"repro/internal/telemetry"
)

// This file checks structural invariants of the trace stream: properties
// every search must satisfy regardless of method, seed or workload. The
// trace is the observability layer's contract, so the invariants double
// as its specification.

// runTraced runs one search with a Recorder attached and returns the
// result alongside the captured events.
func runTraced(t *testing.T, method Method, workloadID string, seed int64, extra ...Option) (*Result, []Event, error) {
	t.Helper()
	rec := NewTraceRecorder()
	opts := append([]Option{WithMethod(method), WithSeed(seed), WithTracer(rec)}, extra...)
	opt, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewSimulatedTarget(workloadID, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, serr := opt.Search(target)
	return res, rec.Events(), serr
}

// countKind tallies events of one kind.
func countKind(events []Event, kind EventKind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// checkTraceInvariants asserts every structural property a completed
// search trace must satisfy against its result.
func checkTraceInvariants(t *testing.T, res *Result, events []Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}

	// The stream opens with exactly one search_start and closes with
	// exactly one search_end.
	if events[0].Kind != EventSearchStart {
		t.Errorf("first event is %s, want %s", events[0].Kind, EventSearchStart)
	}
	if n := countKind(events, EventSearchStart); n != 1 {
		t.Errorf("%d search_start events, want 1", n)
	}
	if n := countKind(events, EventSearchEnd); n != 1 {
		t.Errorf("%d search_end events, want 1", n)
	}
	if last := events[len(events)-1]; last.Kind != EventSearchEnd {
		t.Errorf("last event is %s, want %s", last.Kind, EventSearchEnd)
	} else {
		if last.Candidate != res.BestIndex {
			t.Errorf("search_end candidate = %d, result best index = %d", last.Candidate, res.BestIndex)
		}
		if last.Stopped != res.StoppedEarly {
			t.Errorf("search_end stopped = %v, result = %v", last.Stopped, res.StoppedEarly)
		}
		if int(last.Aux) != len(res.Failures) {
			t.Errorf("search_end failure count = %v, result has %d", last.Aux, len(res.Failures))
		}
	}

	// The measurement count in the trace is the search cost in the result.
	if n := countKind(events, EventMeasureDone); n != res.NumMeasurements() {
		t.Errorf("%d measure_done events, result has %d measurements", n, res.NumMeasurements())
	}
	if n := countKind(events, EventQuarantine); n != len(res.Failures) {
		t.Errorf("%d quarantine events, result has %d failures", n, len(res.Failures))
	}

	// A stopping rule fires exactly once, and only on early stops.
	wantStops := 0
	if res.StoppedEarly {
		wantStops = 1
	}
	if n := countKind(events, EventStopRule); n != wantStops {
		t.Errorf("%d stop_rule events, want %d (StoppedEarly=%v)", n, wantStops, res.StoppedEarly)
	}

	// measure_done steps count 1..N in emission order, each preceded by a
	// measure_start for the same candidate, and no candidate completes
	// twice. Quarantines and retries must also follow a measure_start for
	// their candidate: nothing fails without having been attempted.
	started := map[int]bool{}
	doneFor := map[int]bool{}
	step := 0
	for i, e := range events {
		switch e.Kind {
		case EventMeasureStart:
			started[e.Candidate] = true
		case EventMeasureDone:
			step++
			if e.Step != step {
				t.Errorf("event %d: measure_done step = %d, want %d", i, e.Step, step)
			}
			if !started[e.Candidate] {
				t.Errorf("event %d: measure_done for candidate %d without measure_start", i, e.Candidate)
			}
			if doneFor[e.Candidate] {
				t.Errorf("event %d: candidate %d measured twice", i, e.Candidate)
			}
			doneFor[e.Candidate] = true
		case EventQuarantine:
			if !started[e.Candidate] {
				t.Errorf("event %d: quarantine of candidate %d without a preceding measure_start", i, e.Candidate)
			}
		case EventMeasureRetry:
			if !started[e.Candidate] {
				t.Errorf("event %d: retry of candidate %d without a preceding measure_start", i, e.Candidate)
			}
			if e.Attempt < 2 {
				t.Errorf("event %d: retry attempt = %d, want >= 2", i, e.Attempt)
			}
		case EventCandidateSelected:
			// The selected candidate is the next one measured.
			for _, later := range events[i+1:] {
				if later.Kind == EventMeasureStart {
					if later.Candidate != e.Candidate {
						t.Errorf("event %d: selected candidate %d but measured %d next", i, e.Candidate, later.Candidate)
					}
					break
				}
			}
		}
	}

	// Every quarantined candidate appears in the result's failure list
	// and vice versa.
	failed := map[int]bool{}
	for _, f := range res.Failures {
		failed[f.Index] = true
	}
	for _, e := range events {
		if e.Kind == EventQuarantine && !failed[e.Candidate] {
			t.Errorf("quarantine event for candidate %d missing from result failures", e.Candidate)
		}
	}

	// Search-loop events carry the method; only middleware events
	// (retries) are emitted outside the loop and may omit it.
	for i, e := range events {
		if e.Method == "" && e.Kind != EventMeasureRetry {
			t.Errorf("event %d (%s) has no method", i, e.Kind)
		}
	}

	// Serve-audit kinds never appear in a search trace: batch planning
	// runs with the tracer detached, and the rest belong to the serving
	// layer, not the search.
	for i, e := range events {
		switch e.Kind {
		case EventSuggestBatch, EventHTTPRequest, EventSessionCreate, EventSessionEnd:
			t.Errorf("event %d: serve-audit kind %s leaked into a search trace", i, e.Kind)
		}
	}
}

func TestTraceInvariants(t *testing.T) {
	methods := []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch}
	workloads := []string{"als/spark2.1/medium", "terasort/hadoop2.7/large"}
	seeds := []int64{1, 7, 23}
	for _, m := range methods {
		for _, w := range workloads {
			for _, seed := range seeds {
				res, events, err := runTraced(t, m, w, seed)
				if err != nil {
					t.Fatalf("%v/%s/seed %d: %v", m, w, seed, err)
				}
				checkTraceInvariants(t, res, events)
			}
		}
	}
}

// TestTraceInvariantsUnderBatchAdvisor drives NextBatch(3) sessions and
// holds their traces to the same structural contract as batch Search —
// in particular, candidate_selected must still immediately precede the
// measure_start of the same candidate, and none of the batch-planning
// machinery may emit events of its own.
func TestTraceInvariantsUnderBatchAdvisor(t *testing.T) {
	for _, m := range []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO, MethodRandomSearch} {
		for _, seed := range []int64{1, 23} {
			rec := NewTraceRecorder()
			opt, err := New(WithMethod(m), WithSeed(seed), WithTracer(rec))
			if err != nil {
				t.Fatal(err)
			}
			target, err := NewSimulatedTarget("terasort/hadoop2.7/large", 1)
			if err != nil {
				t.Fatal(err)
			}
			advisor, err := opt.NewAdvisor(TargetCandidates(target))
			if err != nil {
				t.Fatal(err)
			}
			driveAdvisorBatch(t, advisor, target, 3, seed)
			res, err := advisor.Result()
			if err != nil {
				t.Fatalf("%v/seed %d: %v", m, seed, err)
			}
			checkTraceInvariants(t, res, rec.Events())
		}
	}
}

func TestTraceInvariantsUnderChaos(t *testing.T) {
	// Chaos injects transient failures (absorbed by retries) and two
	// permanent failures (quarantined); the invariants must hold on the
	// degraded path too, and the failures must surface in the trace.
	for _, m := range []Method{MethodNaiveBO, MethodAugmentedBO, MethodHybridBO} {
		for _, seed := range []int64{3, 11} {
			rec := NewTraceRecorder()
			opt, err := New(
				WithMethod(m), WithSeed(seed), WithTracer(rec),
				// Disable the stopping rules so the catalog is exhausted and
				// the permanently failing candidates are guaranteed a visit.
				WithEIStopFraction(-1), WithDeltaThreshold(-1),
				WithRetry(RetryPolicy{MaxAttempts: 3, Seed: seed, Sleep: func(time.Duration) {}}),
			)
			if err != nil {
				t.Fatal(err)
			}
			target, err := NewSimulatedTarget("pagerank/hadoop2.7/medium", 1)
			if err != nil {
				t.Fatal(err)
			}
			chaotic := NewChaosTarget(target, ChaosConfig{
				Seed:              seed,
				TransientRate:     0.3,
				PermanentFailures: []int{2, 5},
			})
			res, serr := opt.Search(chaotic)
			if serr != nil {
				t.Fatalf("%v/seed %d: %v", m, seed, serr)
			}
			events := rec.Events()
			checkTraceInvariants(t, res, events)
			if len(res.Failures) == 0 {
				t.Errorf("%v/seed %d: permanent chaos failures never quarantined", m, seed)
			}
		}
	}
}

// TestCacheLookupInvariant checks the run-cache trace against its
// contract: per key, the first lookup may miss but at most once, and no
// miss ever follows a served lookup — once a key is resident it stays
// resident for the life of the runner.
func TestCacheLookupInvariant(t *testing.T) {
	rec := telemetry.NewRecorder()
	r := study.NewRunner(sim.New(cloud.DefaultCatalog()), study.WithTracer(rec))
	defer r.Close()
	w, err := r.WorkloadByID("als/spark2.1/medium")
	if err != nil {
		t.Fatal(err)
	}
	mc := study.MethodConfig{Method: study.MethodAugmented}
	const rounds, seeds = 3, 4
	for round := 0; round < rounds; round++ {
		for seed := int64(1); seed <= seeds; seed++ {
			if _, err := r.RunSearch(mc, w, core.MinimizeCost, seed); err != nil {
				t.Fatal(err)
			}
		}
	}

	events := rec.Events()
	if n := countKind(events, EventCacheLookup); n != rounds*seeds {
		t.Errorf("%d cache_lookup events, want %d (one per RunSearch)", n, rounds*seeds)
	}
	if n := countKind(events, telemetry.KindStudyRun); n != rounds*seeds {
		t.Errorf("%d study_run events, want %d", n, rounds*seeds)
	}
	served := map[string]bool{}
	misses := map[string]int{}
	for i, e := range events {
		if e.Kind != EventCacheLookup {
			continue
		}
		if e.Wall == nil || e.Wall.Cache == "" {
			t.Fatalf("event %d: cache_lookup without a disposition", i)
		}
		key := e.Detail
		switch e.Wall.Cache {
		case "miss":
			misses[key]++
			if misses[key] > 1 {
				t.Errorf("event %d: key %q missed %d times", i, key, misses[key])
			}
			if served[key] {
				t.Errorf("event %d: key %q missed after being served", i, key)
			}
		case "hit", "disk", "shared":
			served[key] = true
		default:
			t.Errorf("event %d: unknown disposition %q", i, e.Wall.Cache)
		}
	}
	if len(misses) != seeds {
		t.Errorf("%d distinct keys missed, want %d (one per seed)", len(misses), seeds)
	}
}

// TestSearchContextAbortMidDesign cancels a search from its progress
// callback while the initial design is still running, then checks the
// salvage contract: a Partial result carrying exactly the measurements
// completed before the cancel, alongside the context error.
func TestSearchContextAbortMidDesign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps int
	progress := func(step int, obs Observation) {
		steps = step
		if step == 2 { // the default initial design has 3 points
			cancel()
		}
	}
	opt, err := New(WithMethod(MethodAugmentedBO), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, serr := opt.SearchContext(ctx, target, progress)
	if serr == nil {
		t.Fatal("canceled search returned no error")
	}
	if !errors.Is(serr, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", serr)
	}
	if res == nil {
		t.Fatal("canceled search salvaged no result")
	}
	if !res.Partial {
		t.Error("salvaged result not marked Partial")
	}
	if res.NumMeasurements() != 2 {
		t.Errorf("salvaged %d measurements, want the 2 completed before cancel", res.NumMeasurements())
	}
	if steps != 2 {
		t.Errorf("progress reached step %d, want 2", steps)
	}
	if res.BestIndex < 0 {
		t.Error("salvaged result should keep the incumbent from the completed measurements")
	}
}

// TestSearchContextProgressSkipsInvalidOutcomes pins the fix for the
// step accounting: a corrupted outcome the core rejects and quarantines
// must not fire progress or advance the step counter.
func TestSearchContextProgressSkipsInvalidOutcomes(t *testing.T) {
	target := newFlakyTarget([]float64{5, 3, 8, 2, 9, 4})
	for i := range target.values {
		// Without retry middleware the corrupt outcome reaches the core,
		// which quarantines the candidate.
		if i == 1 {
			target.script[i] = []flakyStep{{corrupt: true}}
		}
	}
	opt, err := New(WithMethod(MethodRandomSearch), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var maxStep int
	res, serr := opt.SearchContext(context.Background(), target, func(step int, obs Observation) {
		calls++
		if step > maxStep {
			maxStep = step
		}
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want 1 quarantined candidate, got %d", len(res.Failures))
	}
	if calls != res.NumMeasurements() {
		t.Errorf("progress fired %d times, result has %d accepted measurements", calls, res.NumMeasurements())
	}
	if maxStep != res.NumMeasurements() {
		t.Errorf("progress reached step %d, want %d", maxStep, res.NumMeasurements())
	}
}

// TestSearchContextNilSafetyOnConfigError pins the fix for the salvage
// path: a configuration failure under an already-canceled context must
// return the configuration error, not dereference the never-built
// target wrapper.
func TestSearchContextNilSafetyOnConfigError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// New validates eagerly, so a search-time core.New failure needs a
	// hand-built optimizer with an invalid config. Under an already
	// canceled context the configuration error must win — the target
	// wrapper was never built, and the salvage path must not touch it.
	bad := &Optimizer{cfg: config{Config: core.Config{
		Method: MethodNaiveBO, Objective: core.MinimizeCost,
		EIStopFraction: 2, // > 1 is rejected by core.New
	}}}
	target, terr := NewSimulatedTarget("als/spark2.1/medium", 1)
	if terr != nil {
		t.Fatal(terr)
	}
	res, serr := bad.SearchContext(ctx, target, nil)
	if serr == nil {
		t.Fatal("invalid configuration produced no error")
	}
	if errors.Is(serr, context.Canceled) {
		t.Errorf("configuration error masked by the canceled context: %v", serr)
	}
	if res != nil {
		t.Errorf("configuration failure salvaged a result: %+v", res)
	}
}
