package arrow

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the retry middleware of the measurement layer: a Target
// wrapper that re-issues failed measurements with capped exponential
// backoff before letting the search loop quarantine the candidate.

// ErrMeasureTimeout reports a measurement attempt that exceeded the
// configured per-attempt timeout. It is classified transient, so the
// retry policy re-issues the measurement.
var ErrMeasureTimeout = errors.New("arrow: measurement timed out")

// RetryPolicy configures NewRetryingTarget. The zero value picks the
// defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the total number of Measure calls allowed per
	// candidate, the first attempt included. Default 5.
	MaxAttempts int
	// InitialBackoff is the sleep after the first failed attempt.
	// Default 2s.
	InitialBackoff time.Duration
	// Multiplier grows the backoff after every failure. Default 2.
	Multiplier float64
	// MaxBackoff caps the grown backoff. Default 60s.
	MaxBackoff time.Duration
	// Jitter spreads each backoff uniformly over
	// [b*(1-Jitter), b*(1+Jitter)] to avoid thundering herds.
	// Default 0.2; set negative to disable.
	Jitter float64
	// Timeout bounds each individual attempt; an attempt that exceeds it
	// fails with ErrMeasureTimeout and is retried. Zero means no bound.
	Timeout time.Duration
	// Seed drives the jitter; equal seeds reproduce the backoff
	// sequence exactly.
	Seed int64
	// Sleep is called to wait out each backoff. Nil means time.Sleep;
	// tests inject a recorder so no wall-clock time passes.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 5
	}
	if p.InitialBackoff == 0 {
		p.InitialBackoff = 2 * time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 60 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RetryStats summarizes what a RetryingTarget absorbed.
type RetryStats struct {
	// Measurements is the number of Measure calls the search issued.
	Measurements int
	// Attempts is the number of Measure calls forwarded to the wrapped
	// target, retries included.
	Attempts int
	// Retries is Attempts minus the first try of each measurement.
	Retries int
	// Failures is the number of measurements that exhausted the policy
	// or hit a permanent error.
	Failures int
}

// RetryingTarget wraps a Target so that transient measurement failures —
// typed TransientError, untyped errors, timeouts, corrupted outcomes —
// are retried with capped exponential backoff. Permanent and fatal errors
// pass through immediately. Construct with NewRetryingTarget or via the
// WithRetry search option.
type RetryingTarget struct {
	target Target
	policy RetryPolicy
	tracer telemetry.Tracer

	mu    sync.Mutex
	rng   *rand.Rand
	stats RetryStats
}

var _ Target = (*RetryingTarget)(nil)

// NewRetryingTarget wraps target with the given retry policy.
func NewRetryingTarget(target Target, policy RetryPolicy) *RetryingTarget {
	p := policy.withDefaults()
	inner := target
	if p.Timeout > 0 {
		inner = newTimeoutTarget(target, p.Timeout, nil)
	}
	return &RetryingTarget{
		target: inner,
		policy: p,
		rng:    rand.New(rand.NewSource(p.Seed)),
	}
}

// SetObserver streams one measure_retry event per re-attempt into t
// (nil disables). The WithTracer search option wires this automatically;
// callers constructing a RetryingTarget directly can opt in here.
func (r *RetryingTarget) SetObserver(t Observer) { r.tracer = t }

// Stats returns a snapshot of the retry counters.
func (r *RetryingTarget) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// NumCandidates implements Target.
func (r *RetryingTarget) NumCandidates() int { return r.target.NumCandidates() }

// Features implements Target.
func (r *RetryingTarget) Features(i int) []float64 { return r.target.Features(i) }

// Name implements Target.
func (r *RetryingTarget) Name(i int) string { return r.target.Name(i) }

// Measure implements Target. It retries candidate i per the policy and
// returns a *RetryExhaustedError once the attempts run out; permanent,
// fatal and context errors are returned as-is after the first attempt.
func (r *RetryingTarget) Measure(i int) (Outcome, error) {
	r.bump(func(s *RetryStats) { s.Measurements++ })
	var lastErr error
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		r.bump(func(s *RetryStats) {
			s.Attempts++
			if attempt > 1 {
				s.Retries++
			}
		})
		if r.tracer != nil && attempt > 1 {
			detail := ""
			if lastErr != nil {
				detail = lastErr.Error()
			}
			r.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindMeasureRetry,
				Candidate: i,
				Name:      r.target.Name(i),
				Attempt:   attempt,
				Detail:    detail,
			})
		}
		out, err := r.target.Measure(i)
		if err == nil {
			// A syntactically fine but corrupted outcome (NaN time,
			// negative cost...) is treated like a transient failure:
			// remeasuring often yields a clean sample.
			if verr := ValidateOutcome(out); verr != nil {
				err = fmt.Errorf("candidate %s: %w", r.target.Name(i), verr)
			} else {
				return out, nil
			}
		}
		if !Retryable(err) {
			r.bump(func(s *RetryStats) { s.Failures++ })
			return Outcome{}, err
		}
		lastErr = err
		if attempt < r.policy.MaxAttempts {
			r.policy.Sleep(r.backoff(attempt))
		}
	}
	r.bump(func(s *RetryStats) { s.Failures++ })
	return Outcome{}, &RetryExhaustedError{Attempts: r.policy.MaxAttempts, Last: lastErr}
}

func (r *RetryingTarget) bump(f func(*RetryStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// backoff computes the jittered wait after the attempt-th failure
// (1-based): InitialBackoff * Multiplier^(attempt-1), capped at
// MaxBackoff, spread by the jitter fraction.
func (r *RetryingTarget) backoff(attempt int) time.Duration {
	b := float64(r.policy.InitialBackoff)
	for k := 1; k < attempt; k++ {
		b *= r.policy.Multiplier
		if b >= float64(r.policy.MaxBackoff) {
			break
		}
	}
	if b > float64(r.policy.MaxBackoff) {
		b = float64(r.policy.MaxBackoff)
	}
	if j := r.policy.Jitter; j > 0 {
		r.mu.Lock()
		u := r.rng.Float64()
		r.mu.Unlock()
		b *= 1 - j + 2*j*u
	}
	return time.Duration(b)
}

// timeoutTarget bounds each Measure call. The measurement goroutine is
// abandoned on timeout (the public Target interface has no cancellation
// channel); its eventual result is discarded.
type timeoutTarget struct {
	t     Target
	d     time.Duration
	after func(time.Duration) <-chan time.Time // nil means time.After
}

var _ Target = (*timeoutTarget)(nil)

func newTimeoutTarget(t Target, d time.Duration, after func(time.Duration) <-chan time.Time) *timeoutTarget {
	if after == nil {
		after = time.After
	}
	return &timeoutTarget{t: t, d: d, after: after}
}

func (t *timeoutTarget) NumCandidates() int       { return t.t.NumCandidates() }
func (t *timeoutTarget) Features(i int) []float64 { return t.t.Features(i) }
func (t *timeoutTarget) Name(i int) string        { return t.t.Name(i) }

func (t *timeoutTarget) Measure(i int) (Outcome, error) {
	type answer struct {
		out Outcome
		err error
	}
	done := make(chan answer, 1)
	go func() {
		out, err := t.t.Measure(i)
		done <- answer{out, err}
	}()
	select {
	case a := <-done:
		return a.out, a.err
	case <-t.after(t.d):
		return Outcome{}, Transient(fmt.Errorf("candidate %s: %w after %v", t.t.Name(i), ErrMeasureTimeout, t.d))
	}
}

// WithRetry wraps every search target with the retry policy: transient
// measurement failures are retried with capped exponential backoff before
// the candidate is quarantined.
func WithRetry(policy RetryPolicy) Option {
	return func(c *config) error {
		if policy.MaxAttempts < 0 {
			return fmt.Errorf("arrow: max attempts %d < 0", policy.MaxAttempts)
		}
		if policy.Jitter > 1 {
			return fmt.Errorf("arrow: retry jitter %v > 1", policy.Jitter)
		}
		p := policy
		c.retry = &p
		return nil
	}
}

// WithMeasureTimeout bounds every measurement attempt: one that exceeds d
// fails with ErrMeasureTimeout. Combined with WithRetry the timeout
// applies per attempt and timed-out attempts are retried.
func WithMeasureTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("arrow: measure timeout %v <= 0", d)
		}
		c.measureTimeout = d
		return nil
	}
}

// wrapTarget applies the configured measurement middleware, innermost
// first: per-attempt timeout, then retries.
func (cfg config) wrapTarget(t Target) Target {
	if cfg.retry != nil {
		p := *cfg.retry
		if p.Timeout == 0 {
			p.Timeout = cfg.measureTimeout
		}
		rt := NewRetryingTarget(t, p)
		rt.SetObserver(cfg.Tracer)
		return rt
	}
	if cfg.measureTimeout > 0 {
		return newTimeoutTarget(t, cfg.measureTimeout, nil)
	}
	return t
}
