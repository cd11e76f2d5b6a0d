package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	arrow "repro"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// Defaults for the zero Config fields.
const (
	DefaultMaxSessions    = 256
	DefaultSessionTTL     = 30 * time.Minute
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBatch       = 16
)

// ErrShuttingDown rejects new sessions during graceful shutdown.
var ErrShuttingDown = errors.New("serve: server is shutting down")

// errSessionAborted is the salvage cause for client-requested deletes.
var errSessionAborted = errors.New("serve: session aborted by client")

// errSessionEvicted is the salvage cause for TTL/cap evictions.
var errSessionEvicted = errors.New("serve: session evicted")

// errShutdownFlush is the salvage cause for graceful-shutdown flushing.
var errShutdownFlush = errors.New("serve: session flushed by server shutdown")

// errJournalFailed aborts a session whose journal record could not be
// written: a create the journal never saw would silently vanish on
// restart, and any later transition would leave a seq gap, so neither
// is acknowledged.
var errJournalFailed = errors.New("serve: session journal append failed")

// errChainClosed refuses an append to a chain that already ended or lost
// a record.
var errChainClosed = errors.New("serve: session journal chain closed")

// Config parameterizes a Server. The zero value serves with the
// defaults above, no audit sink and fresh metrics.
type Config struct {
	// MaxSessions caps the live sessions held in memory; creates beyond
	// it get 429 once nothing is expired. 0 means DefaultMaxSessions.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this; later requests
	// for them get 410 Gone. 0 means DefaultSessionTTL; negative
	// disables eviction.
	SessionTTL time.Duration
	// RequestTimeout bounds each request's wait for a plan. 0 means
	// DefaultRequestTimeout; negative disables the deadline.
	RequestTimeout time.Duration
	// MaxBatch caps the batch size one /nextbatch request may ask for
	// (larger k values are clamped, not rejected — the wire cap MaxBatchK
	// rejects). 0 means DefaultMaxBatch.
	MaxBatch int
	// DisableSpeculation makes observe wait for the next suggestion and
	// return it inline: the observe response then carries it. Either way
	// the session's search loop starts planning the follow-up the moment
	// the observation is handed to it. By default an observe is
	// acknowledged as soon as it is journaled, the plan keeps running
	// while the response travels, and the client's next GET next
	// collects it (counted as a speculate_hit). A plan in flight is
	// never journaled ahead of its suggestion being served: crash
	// recovery replays only acked history and regenerates it
	// deterministically.
	DisableSpeculation bool
	// Tracer receives the audit stream: one http_request event per API
	// call, session lifecycle events, and every session's search events
	// stamped with the session id in the Workload field. Nil disables
	// audit logging (metrics still aggregate).
	Tracer telemetry.Tracer
	// Metrics aggregates the same stream for /metricsz. Nil means a
	// fresh aggregator owned by the server.
	Metrics *telemetry.Metrics
	// Now is the clock (a test seam for TTL eviction). Nil means
	// time.Now.
	Now func() time.Time
	// Journal makes sessions durable: every state transition is
	// appended to the write-ahead session journal before it is
	// acknowledged, Recover rehydrates live sessions after a restart,
	// and session ids are fenced to the journal's owned shards so
	// replicas sharing a journal directory never double-serve. Nil
	// keeps the PR5 behavior: in-memory sessions that die with the
	// process.
	Journal *journal.Journal
	// SnapshotInterval journals a session checkpoint every N accepted
	// observations: the config fingerprint, the op history, the
	// optimizer's resume script and the trace so far, CRC'd inside the
	// record. Recover replays from the latest valid snapshot instead of
	// the chain head, bounding recovery time by the interval instead of
	// the session length; compaction drops the history a snapshot
	// carries. 0 disables snapshots. Ignored without a Journal.
	SnapshotInterval int
	// Warnf routes non-fatal serving warnings (journal append
	// failures). Nil writes to os.Stderr.
	Warnf func(format string, args ...any)
	// Registry, when non-nil, is mounted under /registry/v1/ so one
	// replica can host the cluster's shard-lease registry on its own
	// serving port (the internal/registry handler).
	Registry http.Handler
}

// Server is the optimizer-as-a-service HTTP handler. Construct with
// New; it is safe for concurrent use.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	store   *store
	tracer  telemetry.Tracer // audit sink + metrics, never nil-checked at emit sites
	metrics *telemetry.Metrics
	nextID  atomic.Int64
	down    atomic.Bool
	flushMu sync.Mutex

	// drainMu guards draining: the shards mid-migration. A draining
	// shard refuses session traffic (421) so the outgoing stream is a
	// quiescent prefix of the shard, never racing an in-flight append.
	drainMu  sync.RWMutex
	draining map[int]bool
}

// session is one live advisor with its serving bookkeeping.
type session struct {
	id        string
	method    string
	objective string
	seed      int64
	advisor   *arrow.Advisor
	recorder  *telemetry.Recorder // non-nil when the client asked for a trace

	// mu serializes this session's step operations: concurrent next
	// calls see one consistent pending suggestion, and observe/next
	// interleavings cannot race the advisor state machine.
	mu sync.Mutex

	// endOnce guards the single session_end audit event.
	endOnce sync.Once

	// lastTouch is the idle clock, and idlePrev/idleNext link the
	// store's idle-ordered list; all three are guarded by the store's
	// mutex.
	lastTouch          time.Time
	idlePrev, idleNext *session

	// jmu serializes journal appends for this session, pairing each
	// record's seq allocation with its write so chains stay contiguous
	// even when an eviction races a request.
	jmu sync.Mutex
	// seq is the next journal sequence number; guarded by jmu.
	seq int
	// journaledSeq is the highest suggestion issue ordinal (Seq) any
	// journaled suggest or suggest_batch record covers (-1 before the
	// first), so idempotent next/nextbatch retries never journal the
	// same suggestion twice; guarded by mu.
	journaledSeq int
	// steps counts the accepted observations, for the observe
	// acknowledgment that answers before the plan; guarded by mu.
	steps int
	// lastSnapSteps is the observation count at the last snapshot, so
	// the capture cadence follows SnapshotInterval; guarded by mu.
	lastSnapSteps int
	// fingerprint hashes the session's create request; snapshots carry
	// it so recovery refuses a snapshot from a different config.
	fingerprint string
	// ops mirrors the session's seq-consuming journal records (Session
	// stripped) so a snapshot can carry the pre-watermark history
	// without re-reading the shard; maintained only when snapshots are
	// enabled. Guarded by jmu.
	ops []journal.Record
	// closed marks a chain no record may join anymore: a terminal record
	// was journaled, or an append failed and left a seq gap behind it.
	// It fences racing snapshot captures and appends; guarded by jmu.
	closed bool
	// unserved is set while the search loop plans the follow-up to an
	// acknowledged observe that no client has fetched yet (speculation
	// on): it holds the observation count of that acknowledgment plus
	// one, and 0 means no such plan. Atomic because endSession reads it
	// without the session mutex.
	unserved atomic.Int64
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = telemetry.NewMetrics()
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		store:    newStore(cfg.MaxSessions, cfg.SessionTTL, cfg.Now),
		tracer:   telemetry.Multi(cfg.Tracer, metrics),
		metrics:  metrics,
		draining: make(map[int]bool),
	}
	s.route("POST /v1/sessions", s.handleCreate)
	s.route("GET /v1/sessions", s.handleList)
	s.route("GET /v1/sessions/{id}/next", s.handleNext)
	s.route("POST /v1/sessions/{id}/nextbatch", s.handleNextBatch)
	s.route("POST /v1/sessions/{id}/observe", s.handleObserve)
	s.route("GET /v1/sessions/{id}/result", s.handleResult)
	s.route("DELETE /v1/sessions/{id}", s.handleDelete)
	// A migration stream carries whole session chains, so it gets its
	// own, far larger body cap.
	s.routeCap("POST /v1/migrate", MaxMigrateBytes, s.handleMigrate)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /metricsz", s.handleMetrics)
	if cfg.Registry != nil {
		s.mux.Handle("/registry/v1/", cfg.Registry)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SessionCount reports the live sessions (for health and tests).
func (s *Server) SessionCount() int { return s.store.len() }

// route registers a handler wrapped with the audit middleware: a
// request-scoped deadline, a body cap, and one http_request event per
// call carrying the route, session id, status and handling duration.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request) int) {
	s.routeCap(pattern, MaxRequestBytes, h)
}

// routeCap is route with an explicit body cap, for the endpoints whose
// payloads legitimately dwarf a session request.
func (s *Server) routeCap(pattern string, bodyCap int64, h func(http.ResponseWriter, *http.Request) int) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		r.Body = http.MaxBytesReader(w, r.Body, bodyCap)
		status := h(w, r)
		if s.tracer != nil {
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindHTTPRequest,
				Name:      r.PathValue("id"),
				Candidate: -1,
				Value:     float64(status),
				Detail:    pattern,
				Wall:      &telemetry.Wall{DurationNS: time.Since(t0).Nanoseconds()},
			})
		}
	})
}

// handleCreate opens a session: decode + validate the config, build the
// optimizer through the public API, start the advisor, store it.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) int {
	if s.down.Load() {
		return writeErr(w, http.StatusServiceUnavailable, ErrShuttingDown.Error())
	}
	buf, err := readBody(r)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
	}
	req, err := DecodeSessionRequest(buf.Bytes())
	putBuf(buf)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}

	id, err := s.newSessionID()
	if err != nil {
		return writeErr(w, http.StatusServiceUnavailable, err.Error())
	}
	sess := &session{id: id, seed: req.Seed, journaledSeq: -1}
	sinks := []telemetry.Tracer{}
	if req.Trace {
		sess.recorder = telemetry.NewRecorder()
		sinks = append(sinks, sess.recorder)
	}
	if s.tracer != nil {
		sinks = append(sinks, &sessionTracer{id: id, sink: s.tracer})
	}
	opt, candidates, err := BuildOptimizer(req, arrow.WithTracer(telemetry.Multi(sinks...)))
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	sess.method = opt.Method().String()
	sess.objective = opt.Objective().String()
	advisor, err := opt.NewAdvisor(candidates)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	sess.advisor = advisor

	evicted, err := s.store.add(sess)
	s.finalizeEvicted(evicted)
	if err != nil {
		advisor.Abort(ErrStoreFull)
		return writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("session cap %d reached; retry after idle sessions expire", s.cfg.MaxSessions))
	}
	if s.cfg.Journal != nil {
		// Durability gate: the create record must be on disk before the
		// client learns the id, or the session would vanish on restart.
		reqJSON, merr := json.Marshal(req)
		var jerr error
		if merr == nil {
			sess.fingerprint = journal.Fingerprint(reqJSON)
			jerr = s.appendRecord(sess, journal.Record{Kind: journal.KindCreate, Request: reqJSON})
		}
		if merr != nil || jerr != nil {
			s.store.remove(id)
			advisor.Abort(errJournalFailed)
			return writeErr(w, http.StatusServiceUnavailable, "session journal unavailable; session not created")
		}
		if createDrainHook != nil {
			createDrainHook()
		}
		// Drain fence, create flavor: newSessionID checked the flag, but
		// a migration starting between that check and the append above
		// may have scanned the shard before our create record landed —
		// the 201 would then name a session the successor never received.
		// Renege instead: evict locally WITHOUT a terminal record (the
		// chain may have made the scan and be live on the successor; an
		// abort record here could tombstone it there) and misdirect the
		// client to retry against the cluster. If instead the flag rose
		// after this check, store.add above already happened-before the
		// migration's session snapshot, so the barrier covers us and the
		// chain migrates: the 201 is good.
		if s.shardDraining(journal.ShardOf(id, s.cfg.Journal.Shards())) {
			s.store.remove(id)
			advisor.Abort(errSessionMigrated)
			return writeErr(w, http.StatusMisdirectedRequest,
				fmt.Sprintf("session %s maps to a journal shard mid-migration; retry against the cluster", id))
		}
	}
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindSessionCreate,
			Name:      id,
			Seed:      req.Seed,
			Candidate: -1,
			Value:     float64(advisor.NumCandidates()),
			Detail:    sess.method + "/" + sess.objective,
		})
	}
	return writeJSON(w, http.StatusCreated, s.infoOf(sess))
}

// handleList enumerates the live sessions.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) int {
	sessions := s.store.all()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		infos = append(infos, s.infoOf(sess))
	}
	// Deterministic order for clients and tests.
	slices.SortFunc(infos, func(a, b SessionInfo) int { return strings.Compare(a.ID, b.ID) })
	return writeJSON(w, http.StatusOK, infos)
}

// handleNext answers "what should I measure next?". Idempotent while a
// suggestion is pending; Done once the session's stop rule has fired.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) int {
	sess, status := s.resolve(w, r)
	if sess == nil {
		return status
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if st := s.fence(w, sess.id); st != 0 {
		return st
	}
	sug, st := s.advance(w, r, sess)
	if sug == nil {
		return st
	}
	return writeJSON(w, http.StatusOK, sug)
}

// handleObserve ingests a measurement (or a measurement failure) and
// acknowledges it once it is journaled. Handing the outcome to the
// advisor starts the search loop planning the follow-up; by default the
// client's next GET next collects that plan, and with speculation
// disabled the response waits for it and carries it.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) int {
	sess, status := s.resolve(w, r)
	if sess == nil {
		return status
	}
	buf, err := readBody(r)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
	}
	req, err := DecodeObserveRequest(buf.Bytes())
	putBuf(buf)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if st := s.fence(w, sess.id); st != 0 {
		return st
	}
	reason := req.Reason
	if reason == "" {
		reason = "measurement failed"
	}
	if req.Failed {
		err = sess.advisor.ObserveFailure(req.Index, errors.New(reason))
	} else {
		err = sess.advisor.Observe(req.Index, arrow.Outcome{
			TimeSec: req.TimeSec,
			CostUSD: req.CostUSD,
			Metrics: req.Metrics,
		})
	}
	switch {
	case err == nil:
	case errors.Is(err, arrow.ErrNoPendingSuggestion):
		return writeErr(w, http.StatusConflict, "no pending suggestion: not asked, already observed, or session finished")
	case errors.Is(err, arrow.ErrSuggestionMismatch):
		return writeErr(w, http.StatusConflict, err.Error())
	default:
		return writeErr(w, http.StatusBadRequest, err.Error())
	}

	// Write-ahead: the accepted observation reaches the journal before
	// the acknowledgment reaches the client. An observation lost with an
	// unacknowledged response is safe — the client re-measures and the
	// deterministic target yields the same outcome.
	var rec journal.Record
	if req.Failed {
		rec = journal.Record{Kind: journal.KindObserveFailure, Index: req.Index, Reason: reason}
	} else {
		sess.steps++
		rec = journal.Record{
			Kind:    journal.KindObserve,
			Index:   req.Index,
			TimeSec: req.TimeSec,
			CostUSD: req.CostUSD,
			Metrics: req.Metrics,
		}
	}
	if err := s.appendRecord(sess, rec); err != nil {
		return s.dropUnjournaled(w, sess, err)
	}

	if s.cfg.DisableSpeculation {
		sug, st := s.advance(w, r, sess)
		if sug == nil {
			return st
		}
		return writeJSON(w, http.StatusOK, ObserveResponse{Step: sug.Step, Next: sug})
	}
	sess.unserved.Store(int64(sess.steps) + 1)
	return writeJSON(w, http.StatusOK, ObserveResponse{Step: sess.steps})
}

// advance collects the session's next suggestion (or Done) from its
// search loop and journals it the first time it is served. Callers hold
// the session mutex. On failure the error response has been written and
// a nil suggestion is returned.
func (s *Server) advance(w http.ResponseWriter, r *http.Request, sess *session) (*arrow.Suggestion, int) {
	sug, err := sess.advisor.Next(r.Context())
	if err != nil {
		return nil, writeErr(w, http.StatusGatewayTimeout, fmt.Sprintf("planning: %v", err))
	}
	if sug.Done {
		s.endSession(sess, "done")
		return &sug, 0
	}
	// Journal each suggestion once (Next is idempotent while one is
	// pending, and a batch may have journaled it already); replay asserts
	// the regenerated suggestion matches, so a journal/optimizer
	// divergence is detected instead of served.
	if sug.Seq > sess.journaledSeq {
		sess.journaledSeq = sug.Seq
		if err := s.appendRecord(sess, journal.Record{Kind: journal.KindSuggest, Index: sug.Index, Step: sug.Step}); err != nil {
			return nil, s.dropUnjournaled(w, sess, err)
		}
		s.emitHit(sess, sug.Seq)
		s.maybeSnapshot(sess)
	}
	return &sug, 0
}

// handleNextBatch answers "what k things should I measure concurrently?"
// with up to min(k, MaxBatch) suggestions: the pending head plus extra
// candidates planned by fantasizing outcomes for everything in flight.
// Idempotent like next — until observations arrive, retries return the
// same suggestions with the same Seq ordinals.
func (s *Server) handleNextBatch(w http.ResponseWriter, r *http.Request) int {
	sess, status := s.resolve(w, r)
	if sess == nil {
		return status
	}
	buf, err := readBody(r)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
	}
	req, err := DecodeNextBatchRequest(buf.Bytes())
	putBuf(buf)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	k := req.K
	if k > s.cfg.MaxBatch {
		k = s.cfg.MaxBatch
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if st := s.fence(w, sess.id); st != 0 {
		return st
	}
	sugs, err := sess.advisor.NextBatch(r.Context(), k)
	if err != nil {
		return writeErr(w, http.StatusGatewayTimeout, fmt.Sprintf("planning: %v", err))
	}
	if sugs[0].Done {
		s.endSession(sess, "done")
		return writeJSON(w, http.StatusOK, NextBatchResponse{Suggestions: sugs})
	}
	maxSeq := -1
	indices := make([]int, len(sugs))
	for i, sug := range sugs {
		indices[i] = sug.Index
		if sug.Seq > maxSeq {
			maxSeq = sug.Seq
		}
	}
	// Journal the batch once: a retry with no new observations reissues
	// the same Seq ordinals and is skipped. Replay regenerates the batch
	// with NextBatch(K) and asserts the indices, like suggest records.
	if maxSeq > sess.journaledSeq {
		sess.journaledSeq = maxSeq
		if err := s.appendRecord(sess, journal.Record{Kind: journal.KindSuggestBatch, K: k, Indices: indices}); err != nil {
			return s.dropUnjournaled(w, sess, err)
		}
		s.emitHit(sess, maxSeq)
		s.maybeSnapshot(sess)
	}
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindSuggestBatch,
			Name:      sess.id,
			Candidate: -1,
			Step:      k,
			Value:     float64(len(sugs)),
		})
	}
	return writeJSON(w, http.StatusOK, NextBatchResponse{Suggestions: sugs})
}

// emitHit audits the first suggestion newly served after an acknowledged
// observe: the plan the search loop began at that observe was already
// under way when the client asked for it. seq is the served issue
// ordinal.
func (s *Server) emitHit(sess *session, seq int) {
	if sess.unserved.Swap(0) != 0 {
		s.emitSpeculate(telemetry.KindSpeculateHit, sess, seq)
	}
}

// emitSpeculate records a speculation disposition in the audit stream.
func (s *Server) emitSpeculate(kind telemetry.Kind, sess *session, value int) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(telemetry.Event{
		Kind:      kind,
		Name:      sess.id,
		Candidate: -1,
		Value:     float64(value),
	})
}

// handleResult returns the recommendation once the session is done
// (naturally or salvaged); before that it answers 409 so clients can
// tell "keep stepping" from "gone".
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) int {
	sess, status := s.resolve(w, r)
	if sess == nil {
		return status
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if st := s.fence(w, sess.id); st != 0 {
		return st
	}
	res, err := sess.advisor.Result()
	if errors.Is(err, arrow.ErrSearchRunning) {
		return writeErr(w, http.StatusConflict, "session still running; keep observing until next reports done")
	}
	// Under speculation a polling client can learn the session finished
	// from the result itself without ever fetching the Done suggestion;
	// reading the result is then the terminal client-visible transition.
	// (endSession is idempotent — a session ended through next or delete
	// is untouched.)
	if sess.advisor.Done() {
		s.endSession(sess, "done")
	}
	return writeJSON(w, http.StatusOK, s.resultResponse(sess, res, err))
}

// handleDelete aborts a session now, salvaging whatever was measured
// into a Partial result (the PR 1 salvage path), and returns it.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) int {
	sess, status := s.resolve(w, r)
	if sess == nil {
		return status
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if st := s.fence(w, sess.id); st != 0 {
		return st
	}
	res, err := sess.advisor.Abort(errSessionAborted)
	s.endSession(sess, "aborted")
	return writeJSON(w, http.StatusOK, s.resultResponse(sess, res, err))
}

// handleHealth is the liveness/readiness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) int {
	type health struct {
		Status       string `json:"status"`
		Sessions     int    `json:"sessions"`
		MaxSessions  int    `json:"max_sessions"`
		ShuttingDown bool   `json:"shutting_down,omitempty"`
	}
	st := "ok"
	if s.down.Load() {
		st = "shutting-down"
	}
	return writeJSON(w, http.StatusOK, health{
		Status:       st,
		Sessions:     s.store.len(),
		MaxSessions:  s.cfg.MaxSessions,
		ShuttingDown: s.down.Load(),
	})
}

// handleMetrics renders the aggregated telemetry as text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "sessions: %d live (cap %d)\n\n", s.store.len(), s.cfg.MaxSessions)
	io.WriteString(w, telemetry.RenderSummary(s.metrics))
	return http.StatusOK
}

// Shutdown flushes every live session to a salvaged Partial result and
// stops accepting new sessions. Results stay readable while the HTTP
// listener drains (the caller owns listener shutdown). It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.down.Store(true)
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for _, sess := range s.store.all() {
		// Abort needs no session mutex: a concurrent in-flight step
		// simply sees the session finish.
		sess.advisor.Abort(errShutdownFlush)
		s.endSession(sess, "shutdown-flush")
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// resolve maps the request's session id to a live session, answering
// 404 for unknown ids, 410 for evicted ones and 421 for sessions whose
// journal shard a different replica owns. Expired sessions found by the
// lookup's sweep are finalized here.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*session, int) {
	id := r.PathValue("id")
	if st := s.fence(w, id); st != 0 {
		return nil, st
	}
	sess, status, evicted := s.store.get(id)
	s.finalizeEvicted(evicted)
	switch status {
	case lookupOK:
		return sess, 0
	case lookupGone:
		return nil, writeErr(w, http.StatusGone, fmt.Sprintf("session %s was evicted (idle past the %v TTL or flushed)", id, s.cfg.SessionTTL))
	default:
		return nil, writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown session %s", id))
	}
}

// finalizeEvicted salvages sessions the store expired: their advisors
// abort into Partial results (releasing the search goroutine) and the
// eviction lands in the audit stream.
func (s *Server) finalizeEvicted(evicted []*session) {
	for _, sess := range evicted {
		sess.advisor.Abort(errSessionEvicted)
		s.endSession(sess, "evicted")
	}
}

// endSession journals the session's terminal record and emits the
// single session_end audit event. Graceful shutdown ("shutdown-flush")
// intentionally journals nothing: a drained session is still live in
// the journal, so the next boot rehydrates it — that is what makes a
// rolling restart lossless.
func (s *Server) endSession(sess *session, disposition string) {
	sess.endOnce.Do(func() {
		// A plan begun at an acknowledged observe that no client fetched
		// dies with the session; surface the wasted compute in the audit
		// stream. A session that finished answered that plan with Done.
		if n := sess.unserved.Swap(0); n != 0 && disposition != "done" {
			s.emitSpeculate(telemetry.KindSpeculateWaste, sess, int(n-1))
		}
		switch disposition {
		case "shutdown-flush":
			// Not terminal in the journal; see above.
		case "aborted":
			s.appendRecord(sess, journal.Record{Kind: journal.KindAbort, Reason: disposition})
		default: // "done", "evicted"
			s.appendRecord(sess, journal.Record{Kind: journal.KindEnd, Reason: disposition})
		}
		if s.tracer == nil {
			return
		}
		steps := 0
		stopped := false
		if res, _ := sess.advisor.Result(); res != nil {
			steps = len(res.Observations)
			stopped = res.StoppedEarly
		}
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindSessionEnd,
			Name:      sess.id,
			Seed:      sess.seed,
			Candidate: -1,
			Step:      steps,
			Detail:    disposition,
			Stopped:   stopped,
		})
	})
}

// newSessionID allocates the next session id. With a journal attached,
// ids that hash into shards this replica holds no lease on are skipped:
// replicas sharing one journal directory draw from disjoint id spaces,
// which is what keeps any session served by exactly one process.
func (s *Server) newSessionID() (string, error) {
	j := s.cfg.Journal
	if j == nil {
		return fmt.Sprintf("s-%06d", s.nextID.Add(1)), nil
	}
	usable := 0
	for _, shard := range j.Owned() {
		if !s.shardDraining(shard) {
			usable++
		}
	}
	if usable == 0 {
		return "", errors.New("serve: this replica holds no journal shard leases; another replica owns them all")
	}
	for {
		id := fmt.Sprintf("s-%06d", s.nextID.Add(1))
		if j.Owns(id) && !s.shardDraining(journal.ShardOf(id, j.Shards())) {
			return id, nil
		}
	}
}

// appendRecord journals one state transition for the session, pairing
// the sequence-number allocation with the write under the session's
// journal mutex so chains stay contiguous even when an eviction races a
// request. A failed append is warned about and closes the chain: no
// later record may land past the gap it leaves, so the journal keeps
// the session's durable prefix intact for recovery to replay.
func (s *Server) appendRecord(sess *session, rec journal.Record) error {
	j := s.cfg.Journal
	if j == nil {
		return nil
	}
	sess.jmu.Lock()
	defer sess.jmu.Unlock()
	if sess.closed {
		return errChainClosed
	}
	rec.Session = sess.id
	rec.Seq = sess.seq
	sess.seq++
	if rec.Kind == journal.KindAbort || rec.Kind == journal.KindEnd {
		sess.closed = true
	}
	if err := j.Append(rec); err != nil {
		sess.closed = true
		s.warnf("session %s: %s record lost: %v", sess.id, rec.Kind, err)
		return err
	}
	if s.snapshotsEnabled() {
		switch rec.Kind {
		case journal.KindSuggest, journal.KindSuggestBatch, journal.KindObserve, journal.KindObserveFailure:
			op := rec
			op.Session = "" // the snapshot record identifies the session
			sess.ops = append(sess.ops, op)
		}
	}
	return nil
}

// dropUnjournaled answers a transition whose record did not reach the
// journal, and drops the session from memory without a terminal record,
// as DropShards does: the transition was never acknowledged, and the
// journal's durable prefix is what Recover or ReclaimShards replays. A
// lost or lapsed lease answers 421, like the shard fence; any other
// journal failure answers 503.
func (s *Server) dropUnjournaled(w http.ResponseWriter, sess *session, err error) int {
	s.store.remove(sess.id)
	sess.advisor.Abort(errJournalFailed)
	if errors.Is(err, journal.ErrNotOwned) || errors.Is(err, journal.ErrLeaseExpired) {
		return writeErr(w, http.StatusMisdirectedRequest,
			fmt.Sprintf("session %s: %v; ask the owning replica", sess.id, err))
	}
	return writeErr(w, http.StatusServiceUnavailable,
		fmt.Sprintf("session %s: transition not journaled: %v", sess.id, err))
}

// snapshotsEnabled reports whether sessions checkpoint themselves.
func (s *Server) snapshotsEnabled() bool {
	return s.cfg.Journal != nil && s.cfg.SnapshotInterval > 0
}

// maybeSnapshot journals a session checkpoint when SnapshotInterval
// observations have accumulated since the last one. Callers hold the
// session mutex right after journaling a suggestion, so the advisor's
// search loop is parked on the pending suggestion — the one moment the
// resume script and the trace recorder are both quiescent and
// exportable. The snapshot record is seq-transparent: it carries the
// session's watermark without consuming a sequence number, so replay
// chains are unchanged whether snapshots exist or not.
func (s *Server) maybeSnapshot(sess *session) {
	if !s.snapshotsEnabled() || sess.steps-sess.lastSnapSteps < s.cfg.SnapshotInterval {
		return
	}
	script := sess.advisor.Script()
	scriptJSON, err := json.Marshal(script)
	if err != nil {
		s.warnf("session %s: snapshot skipped: marshaling resume script: %v", sess.id, err)
		return
	}
	var eventsJSON json.RawMessage
	if sess.recorder != nil {
		events := sess.recorder.Events()
		stripped := make([]telemetry.Event, len(events))
		for i, e := range events {
			stripped[i] = e.StripWall()
		}
		eventsJSON, err = json.Marshal(stripped)
		if err != nil {
			s.warnf("session %s: snapshot skipped: marshaling trace: %v", sess.id, err)
			return
		}
	}
	sess.jmu.Lock()
	defer sess.jmu.Unlock()
	if sess.closed {
		return
	}
	observes := 0
	for _, op := range sess.ops {
		if op.Kind == journal.KindObserve {
			observes++
		}
	}
	snap := journal.Snapshot{
		Fingerprint:  sess.fingerprint,
		Watermark:    sess.seq,
		Observations: observes,
		Ops:          append([]journal.Record(nil), sess.ops...),
		Script:       scriptJSON,
		Events:       eventsJSON,
	}
	payload, err := journal.EncodeSnapshot(snap)
	if err != nil {
		// A mirror that fails the snapshot invariants means an earlier
		// append already failed and left a seq gap; the chain is damaged
		// either way, so just skip the checkpoint.
		s.warnf("session %s: snapshot skipped: %v", sess.id, err)
		return
	}
	rec := journal.Record{Session: sess.id, Seq: sess.seq, Kind: journal.KindSnapshot, Request: payload}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.warnf("session %s: snapshot record lost: %v", sess.id, err)
		return
	}
	sess.lastSnapSteps = sess.steps
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindSnapshot,
			Name:      sess.id,
			Candidate: -1,
			Step:      sess.steps,
			Value:     float64(snap.Watermark),
		})
	}
}

// warnf routes a non-fatal serving warning.
func (s *Server) warnf(format string, args ...any) {
	if s.cfg.Warnf != nil {
		s.cfg.Warnf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
}

// infoOf snapshots a session's description.
func (s *Server) infoOf(sess *session) SessionInfo {
	return SessionInfo{
		ID:            sess.id,
		Method:        sess.method,
		Objective:     sess.objective,
		Seed:          sess.seed,
		NumCandidates: sess.advisor.NumCandidates(),
		Done:          sess.advisor.Done(),
	}
}

// resultResponse assembles the result payload, attaching the session's
// wall-stripped trace when one was recorded.
func (s *Server) resultResponse(sess *session, res *arrow.Result, err error) ResultResponse {
	out := ResultResponse{ID: sess.id, Done: true, Result: res}
	if err != nil {
		out.SearchError = err.Error()
	}
	if sess.recorder != nil {
		events := sess.recorder.Events()
		out.Trace = make([]telemetry.Event, len(events))
		for i, e := range events {
			out.Trace[i] = e.StripWall()
		}
	}
	return out
}

// sessionTracer stamps the session id into the Workload field of every
// search event on its way to the server's audit stream, so one JSONL
// file interleaving many sessions stays attributable.
type sessionTracer struct {
	id   string
	sink telemetry.Tracer
}

func (t *sessionTracer) Emit(e telemetry.Event) {
	if e.Workload == "" {
		e.Workload = t.id
	}
	t.sink.Emit(e)
}

// writeJSON writes v with the given status and returns the status for
// the audit middleware. The body is encoded into a pooled buffer first,
// so the response goes out in one write with a Content-Length header and
// the encoder's scratch space is recycled across requests.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	return status
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, status int, msg string) int {
	return writeJSON(w, status, ErrorResponse{Error: msg})
}
