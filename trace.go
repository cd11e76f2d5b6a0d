package arrow

import (
	"io"

	"repro/internal/telemetry"
)

// This file is the public face of the observability layer
// (internal/telemetry): per-iteration search traces — candidates scored,
// acquisition values, surrogate fit timing, measurement lifecycle,
// stop-rule firing — plus aggregate counters and latency histograms.
//
// Every event field except the "wall" subobject is deterministic for a
// fixed seed and target, so a wall-stripped trace doubles as a golden
// artifact: re-running the same search must reproduce it byte for byte.

// Observer receives trace events during a search. Implementations must
// be safe for concurrent use. It is an alias of the internal tracer
// interface, so any type with an Emit(Event) method qualifies.
type Observer = telemetry.Tracer

// Event is one trace record; see EventKind for the vocabulary. All
// wall-clock-dependent fields live in Event.Wall.
type Event = telemetry.Event

// EventWall holds an event's environment-dependent fields (durations,
// cache dispositions), isolated so deterministic tooling can strip them.
type EventWall = telemetry.Wall

// EventKind names an event type.
type EventKind = telemetry.Kind

// The event kinds a search emits.
const (
	EventSearchStart       = telemetry.KindSearchStart
	EventMeasureStart      = telemetry.KindMeasureStart
	EventMeasureDone       = telemetry.KindMeasureDone
	EventMeasureRetry      = telemetry.KindMeasureRetry
	EventQuarantine        = telemetry.KindQuarantine
	EventSurrogateFit      = telemetry.KindSurrogateFit
	EventCandidateScored   = telemetry.KindCandidateScored
	EventCandidateSelected = telemetry.KindCandidateSelected
	EventStopRule          = telemetry.KindStopRule
	EventPhase             = telemetry.KindPhase
	EventSearchEnd         = telemetry.KindSearchEnd
	EventCacheLookup       = telemetry.KindCacheLookup
)

// The event kinds the serving layer (cmd/arrow-serve) emits into its
// audit stream, alongside the per-session search events above.
const (
	EventSessionCreate = telemetry.KindSessionCreate
	EventSessionEnd    = telemetry.KindSessionEnd
	EventHTTPRequest   = telemetry.KindHTTPRequest
	EventSuggestBatch  = telemetry.KindSuggestBatch
)

// WithTracer streams every search event into t: one search_start, the
// measurement lifecycle (start/done, retries, quarantines), surrogate
// fit timings, per-candidate acquisition scores, stop-rule firings and
// one search_end. A nil t disables tracing (the default); untraced
// searches pay a single branch per potential event and allocate
// nothing.
func WithTracer(t Observer) Option {
	return func(c *config) error {
		c.tracer = t
		return nil
	}
}

// TraceRecorder is an in-memory Observer for tests and programmatic
// trace analysis.
type TraceRecorder = telemetry.Recorder

// NewTraceRecorder returns an empty in-memory Observer.
func NewTraceRecorder() *TraceRecorder { return telemetry.NewRecorder() }

// JSONLTracer streams events to a writer as JSON Lines, one event per
// line, in emission order.
type JSONLTracer = telemetry.JSONLWriter

// NewJSONLTracer builds a streaming JSONL Observer over w. stripWall
// drops the wall-clock subobject from every line, yielding the
// deterministic projection directly. Call Flush before reading the
// output.
func NewJSONLTracer(w io.Writer, stripWall bool) *JSONLTracer {
	return telemetry.NewJSONLWriter(w, stripWall)
}

// DecodeTrace reads a JSONL trace tolerantly: undecodable lines are
// skipped and counted, valid lines are never dropped.
func DecodeTrace(r io.Reader) (events []Event, skipped int, err error) {
	return telemetry.ReadAll(r)
}

// TraceMetrics aggregates an event stream into per-kind counters and
// latency histograms instead of retaining it — the cheap way to observe
// a long search.
type TraceMetrics = telemetry.Metrics

// NewTraceMetrics returns an empty aggregating Observer.
func NewTraceMetrics() *TraceMetrics { return telemetry.NewMetrics() }

// RenderTraceSummary formats the aggregates as the summary table the
// CLIs print under -metrics.
func RenderTraceSummary(m *TraceMetrics) string { return telemetry.RenderSummary(m) }

// MultiObserver fans events out to several observers; nil entries are
// skipped and a nil Observer is returned when none remain.
func MultiObserver(obs ...Observer) Observer { return telemetry.Multi(obs...) }
