// Package telemetry is the search-trace observability layer: a
// zero-dependency event stream plus lightweight counters and latency
// histograms for everything a search does — candidates scored,
// acquisition values, surrogate fit timing, measurement lifecycle
// (start/retry/quarantine), stop-rule firing, and cache lookups.
//
// The layer is pull-free and push-only: instrumented code emits Event
// values into a Tracer, and the default (a nil Tracer) costs nothing —
// every emission site is guarded, so the hot path stays allocation-lean
// when nobody is listening.
//
// # Determinism contract
//
// Every Event field except Wall is a pure function of the search
// configuration and seed: two runs with the same seed produce the same
// event sequence with the same values. Everything environmental —
// durations, cache disposition — lives in the Wall struct, isolated in
// its own JSON subobject ("wall") so tooling can strip it with one field
// deletion. A wall-stripped trace is therefore a golden artifact: the
// test harness asserts byte-identical regeneration.
package telemetry

import "sync"

// Kind names an event type. Kinds are stable strings so JSONL traces
// stay self-describing across versions.
type Kind string

// The event kinds, in rough lifecycle order.
const (
	// KindSearchStart opens a search: Value is the catalog size, Detail
	// the objective name.
	KindSearchStart Kind = "search_start"
	// KindMeasureStart precedes a measurement: Candidate/Name identify
	// the VM, Step is the number of completed observations so far, and
	// FromDesign marks initial-design points.
	KindMeasureStart Kind = "measure_start"
	// KindMeasureDone records an accepted measurement: Value is the
	// objective value, Aux the incumbent after the update (0 until one
	// exists), Step the 1-based measurement number. Wall carries the
	// measurement duration.
	KindMeasureDone Kind = "measure_done"
	// KindMeasureRetry is emitted by the retry middleware before each
	// re-attempt: Attempt is the upcoming attempt number (>= 2), Detail
	// the error that caused the retry.
	KindMeasureRetry Kind = "measure_retry"
	// KindQuarantine marks a candidate the search gave up on: Detail is
	// the final error, FromDesign whether the failure hit the design.
	KindQuarantine Kind = "quarantine"
	// KindSurrogateFit records one model fit: Detail names the model
	// ("gp", "gp-time", "forest", "forest-time"), Value is the number of
	// training rows. Wall carries the fit duration plus the refit
	// disposition (incremental vs full, reused-component count).
	KindSurrogateFit Kind = "surrogate_fit"
	// KindCandidateScored reports one acquisition evaluation: Candidate/
	// Name identify the VM, Value the acquisition score (EI and friends
	// for naive BO, the predicted objective for augmented BO), Aux the
	// predicted execution time when a time SLO is active.
	KindCandidateScored Kind = "candidate_scored"
	// KindCandidateSelected reports the winner of one acquisition pass:
	// Value is its score, Aux the quantity the stopping rule inspects
	// (max EI in objective units, or the best predicted objective).
	KindCandidateSelected Kind = "candidate_selected"
	// KindStopRule fires when an early-stopping rule ends the search:
	// Detail is the human-readable reason, Value the quantity compared,
	// Aux the threshold it crossed.
	KindStopRule Kind = "stop_rule"
	// KindPhase marks an optimizer phase handover (hybrid BO's switch
	// from the naive to the augmented surrogate): Detail names the new
	// phase.
	KindPhase Kind = "phase"
	// KindSearchEnd closes a search: Candidate/Name are the best VM
	// (-1/"" if nothing was measured), Value its objective value, Aux the
	// failure count, Detail the stop reason, Stopped whether a stopping
	// rule fired.
	KindSearchEnd Kind = "search_end"
	// KindCacheLookup records one run-cache lookup: Detail is the cache
	// key. The disposition (hit/miss/disk/shared) is environmental — it
	// depends on what ran before — so it lives in Wall.Cache.
	KindCacheLookup Kind = "cache_lookup"
	// KindSessionCreate opens one advisor session of the serving layer:
	// Name is the session id, Detail "method/objective", Seed the session
	// seed, Value the catalog size.
	KindSessionCreate Kind = "session_create"
	// KindSessionEnd closes one advisor session: Name is the session id,
	// Detail the disposition ("done", "aborted", "evicted",
	// "shutdown-flush"), Step the number of observations delivered,
	// Stopped whether the session's own stop rule fired.
	KindSessionEnd Kind = "session_end"
	// KindSessionRecover marks one advisor session rehydrated from the
	// write-ahead journal after a restart: Name is the session id, Seed
	// the session seed, Step the number of observations replayed, Detail
	// "method/objective". Emitted by the recovery scan, not by searches,
	// so like http_request it is exempt from the search-trace
	// determinism contract.
	KindSessionRecover Kind = "session_recover"
	// KindJournalDamage reports one problem the recovery scan found in
	// the session journal (a corrupt line, a broken record chain, a
	// session whose replay diverged): Detail is the human-readable
	// report. The serving keeps going; the event is the audit trail.
	KindJournalDamage Kind = "journal_damage"
	// KindHTTPRequest records one API request of the serving layer: Name
	// is the session id ("" for collection endpoints), Detail
	// "METHOD /route", Value the response status code. Wall carries the
	// handling duration. Emitted by the server, not by searches, so it is
	// exempt from the search-trace determinism contract (ordering across
	// concurrent sessions is environmental).
	KindHTTPRequest Kind = "http_request"
	// KindSuggestBatch records one /nextbatch request serviced by the
	// serving layer: Name is the session id, Step the requested batch
	// size k, Value the number of suggestions returned. Server-emitted
	// (like http_request), so exempt from the search-trace determinism
	// contract; the search trace itself never contains it — batch
	// planning runs with the tracer detached.
	KindSuggestBatch Kind = "suggest_batch"
	// KindSpeculateHit named a suggestion a server had planned in the
	// background after acknowledging an observe. Nothing emits it: the
	// serving layer plans only inside a request. It stays for readers of
	// old audit streams and for e2ebench, whose serve.speculate_hit_ratio
	// counts it (and so reads 0).
	KindSpeculateHit Kind = "speculate_hit"
	// KindStudyRun summarizes one (method, workload, seed) search of the
	// study harness: Method is the method label, Step the measurement
	// count, Value the normalized best value found, Aux the 1-based step
	// the optimum was measured (0 if never), Stopped whether the search
	// stopped early. Identical for cache hits and misses, which is what
	// keeps study traces byte-identical cold vs warm.
	KindStudyRun Kind = "study_run"
	// KindSnapshot records one session checkpoint written to the journal:
	// Name is the session id, Step the observation count at capture,
	// Value the snapshot's seq watermark. Serve-audit-only, like
	// http_request — snapshot cadence is a serving policy, not part of
	// the search.
	KindSnapshot Kind = "snapshot"
	// KindCompact records one journal-shard compaction: Candidate is the
	// shard number, Value the bytes before, Aux the bytes after, Step the
	// dropped (ended + damaged) chain count, Detail the skip reason when
	// the shard was scanned but not rewritten. Serve-audit-only.
	KindCompact Kind = "compact"
	// KindShardReclaim records a replica taking over a dead peer's
	// journal shard at runtime: Candidate is the shard number, Step the
	// live sessions adopted from it. Serve-audit-only.
	KindShardReclaim Kind = "shard_reclaim"
	// KindLeaseAcquire records a registry shard-lease grant: Candidate
	// is the shard number, Value the fencing epoch, Detail the previous
	// holder (empty for a first grant). Serve-audit-only.
	KindLeaseAcquire Kind = "lease_acquire"
	// KindLeaseExpire records a lease this replica lost (heartbeat
	// lapsed, registry re-granted elsewhere): Candidate is the shard
	// number, Step the live sessions evicted with it. Serve-audit-only.
	KindLeaseExpire Kind = "lease_expire"
	// KindMigrate records a live shard migration: Candidate is the
	// shard number, Step the sessions streamed, Value the successor's
	// fencing epoch, Detail "to <addr>" on the draining side and
	// "from <replica>" on the adopting side. Serve-audit-only.
	KindMigrate Kind = "migrate"
)

// Wall isolates every environment-dependent field of an Event. Golden
// comparisons strip it (Event.StripWall); everything outside it must be
// deterministic for a fixed seed.
type Wall struct {
	// DurationNS is the wall-clock duration of the traced operation.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Cache is the cache disposition of a lookup: "hit", "disk",
	// "shared" or "miss".
	Cache string `json:"cache,omitempty"`
	// Refit is the disposition of a surrogate fit: "incremental" when
	// cached model state (unchanged trees, extended Cholesky factors) was
	// reused, "full" for a from-scratch fit. Reused counts the reused
	// components — trees for the forest, hyperparameter-grid
	// factorizations for the GP. These live in Wall rather than the event
	// body because incremental and full refits produce bit-identical
	// searches; only the work performed differs, and that is
	// environmental, like duration.
	Refit  string `json:"refit,omitempty"`
	Reused int    `json:"reused,omitempty"`
}

// Event is one trace record. The zero value is not a valid event; Kind
// is required. Candidate is always serialized (with -1 meaning "no
// candidate") so decoders never confuse candidate 0 with absence.
type Event struct {
	Kind     Kind   `json:"kind"`
	Method   string `json:"method,omitempty"`
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Step is the number of completed measurements at emission time
	// (1-based for measure_done, which counts itself).
	Step       int     `json:"step,omitempty"`
	Candidate  int     `json:"candidate"`
	Name       string  `json:"name,omitempty"`
	Value      float64 `json:"value"`
	Aux        float64 `json:"aux,omitempty"`
	Detail     string  `json:"detail,omitempty"`
	FromDesign bool    `json:"from_design,omitempty"`
	Attempt    int     `json:"attempt,omitempty"`
	Stopped    bool    `json:"stopped,omitempty"`
	Wall       *Wall   `json:"wall,omitempty"`
}

// StripWall returns a copy of the event with the wall-clock fields
// removed — the deterministic projection used for golden comparison.
func (e Event) StripWall() Event {
	e.Wall = nil
	return e
}

// Tracer receives trace events. Implementations must be safe for
// concurrent use: optimizer goroutines, retry middleware and cache
// lookups may emit from different goroutines at once. Emit must not
// retain pointers into the event beyond the call (Wall is owned by the
// emitter only until Emit returns; sinks that keep events must copy it,
// which the value-copy of Event already does since they share the
// pointee only during the call — sinks that mutate must clone).
type Tracer interface {
	Emit(Event)
}

// Nop is the do-nothing Tracer. Instrumented code treats a nil Tracer
// the same way; Nop exists for callers that want a non-nil default.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Recorder is an in-memory Tracer for tests and programmatic analysis.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	if e.Wall != nil {
		w := *e.Wall // decouple from the emitter's buffer
		e.Wall = &w
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards everything recorded so far.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// multi fans one event out to several tracers.
type multi struct{ sinks []Tracer }

// Multi combines tracers into one; nil entries are skipped. It returns
// nil when nothing remains, so the no-op fast path stays a nil check.
func Multi(tracers ...Tracer) Tracer {
	var sinks []Tracer
	for _, t := range tracers {
		if t != nil {
			sinks = append(sinks, t)
		}
	}
	switch len(sinks) {
	case 0:
		return nil
	case 1:
		return sinks[0]
	}
	return &multi{sinks: sinks}
}

// Emit implements Tracer.
func (m *multi) Emit(e Event) {
	for _, t := range m.sinks {
		t.Emit(e)
	}
}
