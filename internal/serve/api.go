// Package serve is the optimizer-as-a-service layer: a long-running
// HTTP server exposing the four optimizers as interactive advisor
// sessions. A client POSTs /v1/sessions with a method configuration and
// gets a session id; it then loops GET next -> measure -> POST observe
// until the session's own stop rule fires, and GET result returns the
// recommendation. The server plans; it never measures — the control
// flow is the public arrow.Advisor (a step-wise inversion of the batch
// search loop), so a session with the same seed and observations yields
// the same recommendation and deterministic trace as an in-process
// Search.
//
// The server is production-shaped: a bounded in-memory session store
// with TTL eviction and a max-session cap, a per-session mutex, one
// planner per session (the advisor's own search loop, which plans only
// inside a request), graceful shutdown that flushes every in-flight
// session to a salvaged Partial result, /healthz and /metricsz, and
// JSONL audit logging through internal/telemetry.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	arrow "repro"
	"repro/internal/telemetry"
)

// Wire limits. Requests beyond them are rejected before any allocation
// proportional to the excess, so a hostile client cannot balloon the
// server's memory through one decode.
const (
	// MaxRequestBytes bounds any request body.
	MaxRequestBytes = 1 << 20
	// MaxCandidates bounds a custom catalog.
	MaxCandidates = 4096
	// MaxFeatureDims bounds one candidate's feature vector.
	MaxFeatureDims = 256
	// MaxBatchK bounds the k of one /nextbatch request at the wire; the
	// server's MaxBatch policy (Config.MaxBatch) clamps below it.
	MaxBatchK = 64
)

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	// Method selects the optimizer: "naive-bo", "augmented-bo",
	// "hybrid-bo" or "random-search" (short forms "naive", "augmented",
	// "hybrid", "random" are accepted).
	Method string `json:"method"`
	// Objective selects what to minimize: "time", "cost" (default) or
	// "product".
	Objective string `json:"objective,omitempty"`
	// Seed makes the session reproducible.
	Seed int64 `json:"seed"`
	// MaxMeasurements caps the session cost (0 = whole catalog).
	MaxMeasurements int `json:"max_measurements,omitempty"`
	// NumInitial sets the initial design size (0 = default 3).
	NumInitial int `json:"num_initial,omitempty"`
	// DeltaThreshold tunes Augmented BO's stopping rule (0 = default).
	DeltaThreshold float64 `json:"delta_threshold,omitempty"`
	// EIStopFraction tunes Naive BO's stopping rule (0 = default).
	EIStopFraction float64 `json:"ei_stop_fraction,omitempty"`
	// SwitchAfter sets Hybrid BO's handover point (0 = default).
	SwitchAfter int `json:"switch_after,omitempty"`
	// Kernel selects Naive BO's GP kernel: "rbf", "matern12",
	// "matern32", "matern52" (default).
	Kernel string `json:"kernel,omitempty"`
	// MaxTimeSLO constrains the search to VMs within this execution-time
	// SLO, in seconds (0 = unconstrained).
	MaxTimeSLO float64 `json:"max_time_slo,omitempty"`
	// Trace attaches a per-session trace recorder; the result response
	// then carries the session's wall-stripped search trace.
	Trace bool `json:"trace,omitempty"`
	// Candidates overrides the catalog to advise over. Empty means the
	// built-in 18-type AWS catalog.
	Candidates []arrow.Candidate `json:"candidates,omitempty"`
}

// ObserveRequest is the body of POST /v1/sessions/{id}/observe.
type ObserveRequest struct {
	// Index must match the pending suggestion.
	Index int `json:"index"`
	// TimeSec / CostUSD / Metrics are the measurement (ignored when
	// Failed is set). Metrics is optional for methods that do not use
	// low-level metrics.
	TimeSec float64   `json:"time_sec,omitempty"`
	CostUSD float64   `json:"cost_usd,omitempty"`
	Metrics []float64 `json:"metrics,omitempty"`
	// Failed reports that the measurement itself failed; the session
	// quarantines the candidate and plans around it.
	Failed bool `json:"failed,omitempty"`
	// Reason documents the failure.
	Reason string `json:"reason,omitempty"`
}

// SessionInfo is the response to POST /v1/sessions (and the entries of
// GET /v1/sessions).
type SessionInfo struct {
	ID            string `json:"id"`
	Method        string `json:"method"`
	Objective     string `json:"objective"`
	Seed          int64  `json:"seed"`
	NumCandidates int    `json:"num_candidates"`
	Done          bool   `json:"done,omitempty"`
}

// ObserveResponse acknowledges an observation. Unless a suggestion of a
// /nextbatch batch is still unobserved, the observe plans the follow-up
// suggestion, journals it in the observation's own write (under any
// fsync policy, or none) and Next carries it; the client's GET next then
// returns it again without touching the journal. While a batch
// suggestion is outstanding the server acknowledges as soon as the
// observation is journaled, Next is omitted, and the client's next GET
// next or /nextbatch plans.
type ObserveResponse struct {
	// Step counts the observations accepted so far.
	Step int `json:"step"`
	// Next is the follow-up suggestion (Done when the stop rule fired).
	// Omitted while a batch suggestion is outstanding; fetch it with GET
	// next.
	Next *arrow.Suggestion `json:"next,omitempty"`
}

// NextBatchRequest is the body of POST /v1/sessions/{id}/nextbatch.
type NextBatchRequest struct {
	// K is the number of concurrent suggestions wanted. The server may
	// return fewer (budget or stopping rule near, or the method cannot
	// plan ahead at this point), never more.
	K int `json:"k"`
}

// NextBatchResponse carries the batch of concurrent suggestions, in
// issue order (the head — what GET next would return — first). Each may
// be observed in any order; Seq deduplicates retried batches.
type NextBatchResponse struct {
	Suggestions []arrow.Suggestion `json:"suggestions"`
}

// ResultResponse is the response to GET /v1/sessions/{id}/result and
// DELETE /v1/sessions/{id}.
type ResultResponse struct {
	ID   string `json:"id"`
	Done bool   `json:"done"`
	// Result is the recommendation; Result.Partial marks a salvaged
	// session (aborted, evicted or flushed by shutdown).
	Result *arrow.Result `json:"result,omitempty"`
	// SearchError carries the abort cause of a Partial result.
	SearchError string `json:"search_error,omitempty"`
	// Trace is the session's wall-stripped search trace, present when
	// the session was created with "trace": true.
	Trace []telemetry.Event `json:"trace,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodeSessionRequest parses and validates a POST /v1/sessions body
// strictly: one JSON object, known fields only, within the wire limits,
// finite feature values. It does not validate cross-field optimizer
// configuration (BuildOptimizer does, with the same error surface as the
// public API).
func DecodeSessionRequest(data []byte) (*SessionRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("serve: request body %d bytes exceeds %d", len(data), MaxRequestBytes)
	}
	var req SessionRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if len(req.Candidates) > MaxCandidates {
		return nil, fmt.Errorf("serve: %d candidates exceed the %d cap", len(req.Candidates), MaxCandidates)
	}
	for i, c := range req.Candidates {
		if len(c.Features) == 0 {
			return nil, fmt.Errorf("serve: candidate %d has no features", i)
		}
		if len(c.Features) > MaxFeatureDims {
			return nil, fmt.Errorf("serve: candidate %d has %d features, cap %d", i, len(c.Features), MaxFeatureDims)
		}
		for j, v := range c.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("serve: candidate %d feature %d is not finite", i, j)
			}
		}
	}
	if math.IsNaN(req.MaxTimeSLO) || math.IsInf(req.MaxTimeSLO, 0) || req.MaxTimeSLO < 0 {
		return nil, fmt.Errorf("serve: max_time_slo %v invalid", req.MaxTimeSLO)
	}
	return &req, nil
}

// DecodeObserveRequest parses a POST observe body strictly. Outcome
// values are not range-checked here: the session's validation gate
// quarantines poisonous outcomes exactly as a batch search would, which
// is behavior, not a wire error.
func DecodeObserveRequest(data []byte) (*ObserveRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("serve: request body %d bytes exceeds %d", len(data), MaxRequestBytes)
	}
	var req ObserveRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if req.Index < 0 {
		return nil, fmt.Errorf("serve: negative candidate index %d", req.Index)
	}
	if len(req.Metrics) > MaxFeatureDims {
		return nil, fmt.Errorf("serve: %d metrics exceed the %d cap", len(req.Metrics), MaxFeatureDims)
	}
	return &req, nil
}

// DecodeNextBatchRequest parses a POST nextbatch body strictly and
// bounds k to [1, MaxBatchK] so a hostile k cannot balloon planning
// work through one request.
func DecodeNextBatchRequest(data []byte) (*NextBatchRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("serve: request body %d bytes exceeds %d", len(data), MaxRequestBytes)
	}
	var req NextBatchRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if req.K < 1 {
		return nil, fmt.Errorf("serve: batch size %d, want at least 1", req.K)
	}
	if req.K > MaxBatchK {
		return nil, fmt.Errorf("serve: batch size %d exceeds the %d cap", req.K, MaxBatchK)
	}
	return &req, nil
}

// decodeStrict unmarshals one JSON object with unknown fields rejected
// and no trailing garbage tolerated.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: undecodable request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after request object")
	}
	return nil
}

// BuildOptimizer translates a decoded session request into a configured
// optimizer and its candidate catalog, reusing the public option
// validation so the HTTP surface rejects exactly what the API would.
// extra options (the server's tracer wiring) are applied last.
func BuildOptimizer(req *SessionRequest, extra ...arrow.Option) (*arrow.Optimizer, []arrow.Candidate, error) {
	method, err := arrow.ParseMethod(req.Method)
	if err != nil {
		return nil, nil, err
	}
	opts := []arrow.Option{arrow.WithMethod(method), arrow.WithSeed(req.Seed)}
	if req.Objective != "" {
		obj, err := arrow.ParseObjective(req.Objective)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, arrow.WithObjective(obj))
	}
	if req.Kernel != "" {
		k, err := arrow.ParseKernel(req.Kernel)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, arrow.WithKernel(k))
	}
	if req.MaxMeasurements != 0 {
		opts = append(opts, arrow.WithMaxMeasurements(req.MaxMeasurements))
	}
	if req.NumInitial != 0 {
		opts = append(opts, arrow.WithNumInitial(req.NumInitial))
	}
	if req.DeltaThreshold != 0 {
		opts = append(opts, arrow.WithDeltaThreshold(req.DeltaThreshold))
	}
	if req.EIStopFraction != 0 {
		opts = append(opts, arrow.WithEIStopFraction(req.EIStopFraction))
	}
	if req.SwitchAfter != 0 {
		opts = append(opts, arrow.WithSwitchAfter(req.SwitchAfter))
	}
	if req.MaxTimeSLO != 0 {
		opts = append(opts, arrow.WithMaxTimeSLO(req.MaxTimeSLO))
	}
	opts = append(opts, extra...)
	opt, err := arrow.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	candidates := req.Candidates
	if len(candidates) == 0 {
		candidates = arrow.CatalogCandidates()
	}
	return opt, candidates, nil
}
