package arrow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// flakyTarget is a scripted public Target: per candidate, a queue of
// canned responses (errors or corrupted outcomes) is consumed one per
// Measure call before clean measurements flow.
type flakyTarget struct {
	values []float64
	script map[int][]flakyStep
	calls  map[int]int
}

type flakyStep struct {
	err     error
	corrupt bool // return a NaN-time outcome instead of failing
}

func newFlakyTarget(values []float64) *flakyTarget {
	return &flakyTarget{
		values: values,
		script: map[int][]flakyStep{},
		calls:  map[int]int{},
	}
}

func (f *flakyTarget) NumCandidates() int { return len(f.values) }

func (f *flakyTarget) Features(i int) []float64 {
	return []float64{float64(i), float64(i % 3), f.values[i]}
}

func (f *flakyTarget) Name(i int) string { return fmt.Sprintf("vm-%d", i) }

func (f *flakyTarget) Measure(i int) (Outcome, error) {
	call := f.calls[i]
	f.calls[i]++
	if steps := f.script[i]; call < len(steps) {
		step := steps[call]
		if step.err != nil {
			return Outcome{}, step.err
		}
		if step.corrupt {
			return Outcome{TimeSec: math.NaN(), CostUSD: 1}, nil
		}
	}
	return Outcome{TimeSec: f.values[i], CostUSD: f.values[i] / 10}, nil
}

// sleepRecorder captures backoff waits without sleeping.
type sleepRecorder struct{ slept []time.Duration }

func (s *sleepRecorder) sleep(d time.Duration) { s.slept = append(s.slept, d) }

func testPolicy(rec *sleepRecorder, seed int64) RetryPolicy {
	p := RetryPolicy{Seed: seed}
	if rec != nil {
		p.Sleep = rec.sleep
	} else {
		p.Sleep = func(time.Duration) {}
	}
	return p
}

func TestRetryBackoffSequenceDeterministic(t *testing.T) {
	transient := Transient(errors.New("capacity"))
	run := func(seed int64) []time.Duration {
		target := newFlakyTarget([]float64{5, 3})
		target.script[0] = []flakyStep{{err: transient}, {err: transient}, {err: transient}, {err: transient}}
		rec := &sleepRecorder{}
		rt := NewRetryingTarget(target, testPolicy(rec, seed))
		out, err := rt.Measure(0)
		if err != nil {
			t.Fatalf("measurement should succeed on the 5th attempt: %v", err)
		}
		if out.TimeSec != 5 {
			t.Fatalf("outcome = %v, want the clean measurement", out)
		}
		return rec.slept
	}

	slept := run(7)
	if len(slept) != 4 {
		t.Fatalf("slept %d times, want 4 (one per failed attempt)", len(slept))
	}
	// Defaults: 2s initial, x2 growth, 0.2 jitter.
	bases := []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second}
	for k, d := range slept {
		lo := time.Duration(float64(bases[k]) * 0.8)
		hi := time.Duration(float64(bases[k]) * 1.2)
		if d < lo || d > hi {
			t.Errorf("backoff %d = %v, want within [%v, %v]", k, d, lo, hi)
		}
	}
	// Equal seeds reproduce the jittered sequence exactly; different
	// seeds should not (with overwhelming probability).
	again := run(7)
	other := run(8)
	for k := range slept {
		if slept[k] != again[k] {
			t.Errorf("backoff %d: %v then %v for the same seed", k, slept[k], again[k])
		}
	}
	same := true
	for k := range slept {
		if slept[k] != other[k] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical jitter sequence")
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	transient := Transient(errors.New("capacity"))
	target := newFlakyTarget([]float64{5})
	var steps []flakyStep
	for k := 0; k < 9; k++ {
		steps = append(steps, flakyStep{err: transient})
	}
	target.script[0] = steps
	rec := &sleepRecorder{}
	policy := RetryPolicy{
		MaxAttempts:    10,
		InitialBackoff: time.Second,
		MaxBackoff:     4 * time.Second,
		Jitter:         -1, // disabled
		Seed:           1,
		Sleep:          rec.sleep,
	}
	if _, err := NewRetryingTarget(target, policy).Measure(0); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second,
		4 * time.Second, 4 * time.Second, 4 * time.Second,
		4 * time.Second, 4 * time.Second, 4 * time.Second,
	}
	if len(rec.slept) != len(want) {
		t.Fatalf("slept %d times, want %d", len(rec.slept), len(want))
	}
	for k := range want {
		if rec.slept[k] != want[k] {
			t.Errorf("backoff %d = %v, want %v (cap)", k, rec.slept[k], want[k])
		}
	}
}

func TestRetryPermanentErrorNotRetried(t *testing.T) {
	sentinel := errors.New("unsupported instance type")
	target := newFlakyTarget([]float64{5})
	target.script[0] = []flakyStep{{err: Permanent(sentinel)}, {err: Permanent(sentinel)}}
	rec := &sleepRecorder{}
	rt := NewRetryingTarget(target, testPolicy(rec, 1))
	_, err := rt.Measure(0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want the permanent cause", err)
	}
	if len(rec.slept) != 0 {
		t.Errorf("slept %d times retrying a permanent error", len(rec.slept))
	}
	stats := rt.Stats()
	if stats.Attempts != 1 || stats.Retries != 0 || stats.Failures != 1 {
		t.Errorf("stats = %+v, want exactly one attempt and one failure", stats)
	}
}

func TestRetryExhaustedError(t *testing.T) {
	cause := errors.New("perpetually flaky")
	target := newFlakyTarget([]float64{5})
	var steps []flakyStep
	for k := 0; k < 10; k++ {
		steps = append(steps, flakyStep{err: Transient(cause)})
	}
	target.script[0] = steps
	rt := NewRetryingTarget(target, testPolicy(nil, 1))
	_, err := rt.Measure(0)
	var ex *RetryExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error = %v, want *RetryExhaustedError", err)
	}
	if ex.Attempts != 5 {
		t.Errorf("attempts = %d, want the default 5", ex.Attempts)
	}
	if !errors.Is(err, cause) {
		t.Errorf("exhaustion error should wrap the last cause, got %v", err)
	}
	stats := rt.Stats()
	if stats.Attempts != 5 || stats.Retries != 4 || stats.Failures != 1 {
		t.Errorf("stats = %+v, want 5 attempts / 4 retries / 1 failure", stats)
	}
}

func TestRetryCorruptedOutcomeRetried(t *testing.T) {
	// A NaN-time outcome is not an error from the target's point of
	// view, but the retry layer validates and remeasures.
	target := newFlakyTarget([]float64{5})
	target.script[0] = []flakyStep{{corrupt: true}, {corrupt: true}}
	rt := NewRetryingTarget(target, testPolicy(nil, 1))
	out, err := rt.Measure(0)
	if err != nil {
		t.Fatalf("corruption should be retried away: %v", err)
	}
	if out.TimeSec != 5 {
		t.Errorf("outcome = %+v, want the clean remeasurement", out)
	}
	if stats := rt.Stats(); stats.Retries != 2 {
		t.Errorf("retries = %d, want 2 (one per corrupted outcome)", stats.Retries)
	}
}

func TestMeasureTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	target := &blockingTarget{release: release}
	fired := make(chan time.Time, 1)
	fired <- time.Time{}
	tt := newTimeoutTarget(target, time.Minute, func(time.Duration) <-chan time.Time { return fired })
	_, err := tt.Measure(0)
	if !errors.Is(err, ErrMeasureTimeout) {
		t.Fatalf("error = %v, want ErrMeasureTimeout", err)
	}
	if !Retryable(err) {
		t.Error("a timed-out measurement should classify as retryable")
	}
}

// TestTimedOutAttemptsShareSimulatedTarget searches a simulated target
// with a 1 ns timeout, which nearly every attempt misses. Each timed-out
// attempt's goroutine keeps measuring while its retry measures the same
// target again, so the target must take concurrent Measure calls: make
// check runs this under -race. Whatever got through must be the
// simulator's own value, and every candidate is observed or quarantined.
func TestTimedOutAttemptsShareSimulatedTarget(t *testing.T) {
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(WithMethod(MethodRandomSearch), WithSeed(1), WithMeasureTimeout(time.Nanosecond),
		WithRetry(RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if res == nil {
		t.Fatalf("no result: %v", err)
	}
	for _, o := range res.Observations {
		want, err := target.Measure(o.Index)
		if err != nil {
			t.Fatal(err)
		}
		if o.Outcome.TimeSec != want.TimeSec || o.Outcome.CostUSD != want.CostUSD {
			t.Errorf("candidate %s: observed %+v, simulator measures %+v", o.Name, o.Outcome, want)
		}
	}
	if len(res.Observations)+len(res.Failures) != target.NumCandidates() {
		t.Errorf("%d observed + %d quarantined of %d candidates", len(res.Observations), len(res.Failures), target.NumCandidates())
	}
}

// blockingTarget hangs in Measure until released.
type blockingTarget struct{ release chan struct{} }

func (b *blockingTarget) NumCandidates() int     { return 1 }
func (b *blockingTarget) Features(int) []float64 { return []float64{1} }
func (b *blockingTarget) Name(int) string        { return "slow-vm" }
func (b *blockingTarget) Measure(int) (Outcome, error) {
	<-b.release
	return Outcome{TimeSec: 1, CostUSD: 1}, nil
}

func TestRetryableClassification(t *testing.T) {
	plain := errors.New("ssh: connection reset")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"wrapped canceled", fmt.Errorf("measuring: %w", context.Canceled), false},
		{"fatal", Fatal(plain), false},
		{"transient", Transient(plain), true},
		{"permanent", Permanent(plain), false},
		{"untyped", plain, true},
		{"wrapped permanent", fmt.Errorf("candidate 3: %w", Permanent(plain)), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestValidateOutcomePublic(t *testing.T) {
	if err := ValidateOutcome(Outcome{TimeSec: 10, CostUSD: 1}); err != nil {
		t.Fatalf("valid outcome rejected: %v", err)
	}
	bad := []Outcome{
		{TimeSec: math.NaN(), CostUSD: 1},
		{TimeSec: -1, CostUSD: 1},
		{TimeSec: 10, CostUSD: math.Inf(1)},
		{TimeSec: 10, CostUSD: 1, Metrics: []float64{1, 2}}, // wrong length
	}
	for i, out := range bad {
		if err := ValidateOutcome(out); !errors.Is(err, ErrInvalidOutcome) {
			t.Errorf("case %d: error = %v, want ErrInvalidOutcome", i, err)
		}
	}
}

func TestSearchWithRetryAbsorbsTransients(t *testing.T) {
	// Every candidate fails twice before yielding: with retries the
	// search must behave exactly like the fault-free one.
	values := []float64{9, 4, 7, 2, 8, 6, 3, 5}
	clean := newFlakyTarget(values)
	opt, err := New(WithMethod(MethodNaiveBO), WithObjective(MinimizeTime), WithSeed(11), WithEIStopFraction(-1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Search(clean)
	if err != nil {
		t.Fatal(err)
	}

	flaky := newFlakyTarget(values)
	for i := range values {
		flaky.script[i] = []flakyStep{{err: Transient(errors.New("blip"))}, {err: Transient(errors.New("blip"))}}
	}
	optRetry, err := New(WithMethod(MethodNaiveBO), WithObjective(MinimizeTime), WithSeed(11), WithEIStopFraction(-1),
		WithRetry(RetryPolicy{Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := optRetry.Search(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || len(got.Failures) != 0 {
		t.Fatalf("retries should absorb all transients: partial=%v failures=%+v", got.Partial, got.Failures)
	}
	if got.BestIndex != want.BestIndex || got.NumMeasurements() != want.NumMeasurements() {
		t.Errorf("flaky search found %d in %d steps, fault-free found %d in %d",
			got.BestIndex, got.NumMeasurements(), want.BestIndex, want.NumMeasurements())
	}
}

func TestSearchWithoutRetryQuarantinesFlakyCandidate(t *testing.T) {
	// Without WithRetry a single failure quarantines the candidate.
	values := []float64{9, 4, 7, 2}
	target := newFlakyTarget(values)
	target.script[3] = []flakyStep{{err: Transient(errors.New("blip"))}}
	opt, err := New(WithMethod(MethodRandomSearch), WithObjective(MinimizeTime), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Index != 3 || res.Failures[0].Attempts != 1 {
		t.Fatalf("failures = %+v, want candidate 3 after a single attempt", res.Failures)
	}
	if res.BestIndex != 1 {
		t.Errorf("best = %d, want the runner-up 1", res.BestIndex)
	}
}
