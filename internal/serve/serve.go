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
	DefaultMaxSessions = 256
	DefaultSessionTTL  = 30 * time.Minute
	DefaultMaxBatch    = 16
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
	// MaxBatch caps the batch size one /nextbatch request may ask for
	// (larger k values are clamped, not rejected — the wire cap MaxBatchK
	// rejects). 0 means DefaultMaxBatch.
	MaxBatch int
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
	// observations: the config fingerprint, the optimizer's resume script
	// and the trace so far, CRC'd inside the record; the ops stay in the
	// chain. Recover replays the ops below the latest usable snapshot
	// with the surrogate fits skipped, bounding recovery time by the
	// interval instead of the session length, and replays in full when
	// no snapshot is usable; compaction keeps only the latest usable
	// snapshot. 0 disables snapshots. Ignored without a Journal.
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

	// handoffMu serializes MigrateShards with ReclaimShards: between a
	// drain's DropShard and its hand-off's outcome the lease manager
	// still names this replica the shard's holder, so a reclaim in that
	// window would re-acquire the very shard being handed off.
	handoffMu sync.Mutex
}

// session is one live advisor with its serving bookkeeping.
type session struct {
	id        string
	method    string
	objective string
	seed      int64
	advisor   *arrow.Advisor
	recorder  *telemetry.Recorder // non-nil when the client asked for a trace

	// mu serializes this session's step operations and journal appends:
	// concurrent next calls see one consistent pending suggestion,
	// observe/next interleavings cannot race the advisor state machine,
	// and each record's seq allocation is paired with its write. A drain
	// holds it across dropping the shard's grant, so a handler either
	// journaled its step before the drop or meets the unowned shard at
	// its fence. No goroutine takes it while holding another session's,
	// except a drain taking a shard's batch (one drain at a time, under
	// handoffMu).
	mu sync.Mutex

	// endOnce guards the single session_end audit event.
	endOnce sync.Once

	// lastTouch is the idle clock, and idlePrev/idleNext link the
	// store's idle-ordered list; all three are guarded by the store's
	// mutex.
	lastTouch          time.Time
	idlePrev, idleNext *session

	// seq is the next journal sequence number; guarded by mu.
	seq int
	// journaledSeq is the highest suggestion issue ordinal (Seq) any
	// journaled suggest or suggest_batch record covers (-1 before the
	// first), so idempotent next/nextbatch retries never journal the
	// same suggestion twice; guarded by mu.
	journaledSeq int
	// steps counts the accepted observations, for the observe
	// acknowledgment that leaves the plan to a later request; guarded by
	// mu.
	steps int
	// observed counts the accepted observations and observe-failures.
	// While it does not exceed journaledSeq, a suggestion the session
	// served (a batch's) is still unobserved; guarded by mu.
	observed int
	// lastSnapSteps is the observation count at the last snapshot, so
	// the capture cadence follows SnapshotInterval; guarded by mu.
	lastSnapSteps int
	// fingerprint hashes the session's create request; snapshots carry
	// it so recovery refuses a snapshot from a different config.
	fingerprint string
	// staged holds the records the current request has yet to journal,
	// in order; commit writes them in one Append. Guarded by mu.
	staged []journal.Record
	// closed marks a chain no record may join anymore: a terminal record
	// was journaled, or an append failed and left a seq gap behind it.
	// It fences racing snapshot captures and appends; guarded by mu.
	closed bool
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = DefaultSessionTTL
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
		cfg:     cfg,
		mux:     http.NewServeMux(),
		store:   newStore(cfg.MaxSessions, cfg.SessionTTL, cfg.Now),
		tracer:  telemetry.Multi(cfg.Tracer, metrics),
		metrics: metrics,
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

// route registers a handler wrapped with the audit middleware: a body
// cap, and one http_request event per call carrying the route, session
// id, status and handling duration.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request) int) {
	s.routeCap(pattern, MaxRequestBytes, h)
}

// routeCap is route with an explicit body cap, for the endpoints whose
// payloads legitimately dwarf a session request.
func (s *Server) routeCap(pattern string, bodyCap int64, h func(http.ResponseWriter, *http.Request) int) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
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

	// The session's mutex is held from its first appearance in the store
	// through the create append, so no request can step it before its
	// create record is durable. Sessions the store expired to make room
	// are finalized after it is released: they have mutexes of their own.
	sess.mu.Lock()
	evicted, err := s.store.add(sess)
	status := 0
	switch {
	case err != nil:
		advisor.Abort(ErrStoreFull)
		status = writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("session cap %d reached; retry after idle sessions expire", s.cfg.MaxSessions))
	case s.cfg.Journal != nil:
		// Durability gate: the create record must be on disk before the
		// client learns the id, or the session would vanish on restart. A
		// drain that dropped the shard after the id was minted makes the
		// journal refuse the record, which answers 421.
		reqJSON, err := json.Marshal(req)
		if err == nil {
			sess.fingerprint = journal.Fingerprint(reqJSON)
			s.stage(sess, journal.Record{Kind: journal.KindCreate, Request: reqJSON})
			err = s.commit(sess)
		}
		if err != nil {
			status = s.dropUnjournaled(w, sess, err)
		}
	}
	sess.mu.Unlock()
	s.finalizeEvicted(evicted)
	if status != 0 {
		return status
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
	sug := s.stageNext(sess)
	// Done's write carries only the end record; losing it leaves the
	// finished session live for recovery, so Done is still the answer.
	if err := s.commit(sess); err != nil && !sug.Done {
		return s.dropUnjournaled(w, sess, err)
	}
	return writeJSON(w, http.StatusOK, sug)
}

// handleObserve ingests a measurement (or a measurement failure) and
// acknowledges it once it is journaled. Unless a batch suggestion is
// still unobserved, the response carries the follow-up suggestion,
// planned on this request and journaled with the observation in one
// write; otherwise the client's next GET next or nextbatch plans it.
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
	switch {
	case sess.advisor.Done():
		// A batch can leave suggestions the search never came back to.
		// The advisor still accepts one after a Next saw the search end,
		// but that Next closed the session's chain with its end record.
		err = arrow.ErrNoPendingSuggestion
	case req.Failed:
		err = sess.advisor.ObserveFailure(req.Index, errors.New(reason))
	default:
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
	sess.observed++
	if req.Failed {
		s.stage(sess, journal.Record{Kind: journal.KindObserveFailure, Index: req.Index, Reason: reason})
	} else {
		sess.steps++
		s.stage(sess, journal.Record{
			Kind:    journal.KindObserve,
			Index:   req.Index,
			TimeSec: req.TimeSec,
			CostUSD: req.CostUSD,
			Metrics: req.Metrics,
		})
	}
	resp := ObserveResponse{Step: sess.steps}
	// The follow-up's records join the observation's write, which under a
	// syncing journal spares them an fsync of their own. Not while a
	// batch's suggestions are outstanding: the batch journaled them
	// already, and planning here would hold the session mutex through
	// the plan while the batch's other observes queue behind it.
	if sess.observed > sess.journaledSeq {
		sug := s.stageNext(sess)
		resp = ObserveResponse{Step: sug.Step, Next: &sug}
	}
	if err := s.commit(sess); err != nil {
		return s.dropUnjournaled(w, sess, err)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// stageNext plans the session's next suggestion (or Done) and stages
// what serving it journals: a suggest record the first time it is
// served, plus a snapshot when one falls due, or the session's end.
// Callers hold the session mutex and commit before answering. No
// request context reaches the advisor: a plan, once begun, runs to its
// end, and it takes milliseconds.
func (s *Server) stageNext(sess *session) arrow.Suggestion {
	// Next fails only on an expired context, which Background never is.
	sug, _ := sess.advisor.Next(context.Background())
	if sug.Done {
		s.endSession(sess, "done")
		return sug
	}
	// Journal each suggestion once (Next is idempotent while one is
	// pending, and a batch may have journaled it already); replay asserts
	// the regenerated suggestion matches, so a journal/optimizer
	// divergence is detected instead of served.
	if sug.Seq > sess.journaledSeq {
		sess.journaledSeq = sug.Seq
		s.stage(sess, journal.Record{Kind: journal.KindSuggest, Index: sug.Index, Step: sug.Step})
		s.maybeSnapshot(sess)
	}
	return sug
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
	sugs, err := sess.advisor.NextBatch(context.Background(), k)
	if err != nil {
		// Only a MaxBatch below 1 gets here.
		return writeErr(w, http.StatusInternalServerError, err.Error())
	}
	if sugs[0].Done {
		s.endSession(sess, "done")
		_ = s.commit(sess) // as in handleNext
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
		s.stage(sess, journal.Record{Kind: journal.KindSuggestBatch, K: k, Indices: indices})
		s.maybeSnapshot(sess)
	}
	if err := s.commit(sess); err != nil {
		return s.dropUnjournaled(w, sess, err)
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
	// Whatever made the result ready ends the session too: the next,
	// nextbatch or observe that saw the search end, a delete, or the
	// flush or eviction that aborted it.
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
	_ = s.commit(sess)
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
		s.finalize(sess, errShutdownFlush, "shutdown-flush")
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// fence answers 421 unless this replica holds a live grant on the
// session's journal shard. resolve checks it before the store lookup,
// and handlers check it again with the session mutex held: a drain drops
// the grant while holding every session mutex on the shard, and a lease
// can lapse at any time, so a handler that resolved its session just
// before either must not advance the advisor for a step the journal
// would refuse.
func (s *Server) fence(w http.ResponseWriter, id string) int {
	if j := s.cfg.Journal; j == nil || j.Owns(id) {
		return 0
	}
	return writeErr(w, http.StatusMisdirectedRequest,
		fmt.Sprintf("session %s maps to a journal shard this replica does not own; ask the owning replica", id))
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
// eviction lands in the journal and the audit stream.
func (s *Server) finalizeEvicted(evicted []*session) {
	for _, sess := range evicted {
		s.finalize(sess, errSessionEvicted, "evicted")
	}
}

// finalize salvages a session the store no longer serves: it aborts the
// advisor first, which releases any step waiting on a plan with the
// session mutex held, then ends the session under that mutex.
func (s *Server) finalize(sess *session, cause error, disposition string) {
	sess.advisor.Abort(cause)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.endSession(sess, disposition)
	_ = s.commit(sess)
}

// endSession stages the session's terminal record and emits the single
// session_end audit event; callers hold the session mutex and commit.
// A caller whose write carries nothing else drops commit's error, which
// commit has already warned about: a lost terminal record leaves the
// session live in the journal, and recovery rehydrates it.
// Graceful shutdown ("shutdown-flush") intentionally journals nothing: a
// drained session is still live in the journal, so the next boot
// rehydrates it — that is what makes a rolling restart lossless.
func (s *Server) endSession(sess *session, disposition string) {
	if disposition == "done" {
		// Shutdown's flush aborts each search before it takes the session
		// mutex, and a request that takes the mutex in between sees Done.
		// The drained session stays live in the journal; the flush ends it.
		if _, err := sess.advisor.Result(); errors.Is(err, errShutdownFlush) {
			return
		}
	}
	sess.endOnce.Do(func() {
		switch disposition {
		case "shutdown-flush":
			// Not terminal in the journal; see above.
		case "aborted":
			s.stage(sess, journal.Record{Kind: journal.KindAbort, Reason: disposition})
		default: // "done", "evicted"
			s.stage(sess, journal.Record{Kind: journal.KindEnd, Reason: disposition})
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
// ids that hash into shards this replica holds no live grant on are
// skipped: replicas sharing one journal directory draw from disjoint id
// spaces, which is what keeps any session served by exactly one
// process. The draw is bounded: with any one of S shards live, 64·S
// draws all miss it with probability below e^-64, so coming up empty
// means no held grant is live — lapsed in a registry outage, or dropped
// by a drain or a lost lease.
func (s *Server) newSessionID() (string, error) {
	j := s.cfg.Journal
	if j == nil {
		return fmt.Sprintf("s-%06d", s.nextID.Add(1)), nil
	}
	for range 64 * j.Shards() {
		id := fmt.Sprintf("s-%06d", s.nextID.Add(1))
		if j.Owns(id) {
			return id, nil
		}
	}
	return "", errors.New("serve: this replica holds no live journal shard lease; another replica owns them, or a lapsed lease awaits renewal")
}

// stage queues one state transition for the session's next journal
// write, allocating its sequence number; commit writes the queue.
// Callers hold the session mutex, which pairs the allocation with the
// write so chains stay contiguous even when an eviction races a request.
func (s *Server) stage(sess *session, rec journal.Record) {
	rec.Session = sess.id
	rec.Seq = sess.seq
	sess.seq++
	sess.staged = append(sess.staged, rec)
}

// commit journals the session's staged records in one Append — one
// write and, under SyncAlways, one fsync — and then audits the snapshot
// it made durable, if any. Callers hold the session mutex. A failed
// write is warned about and closes the chain, as a terminal record
// does: no later record may land past the gap, so the journal keeps the
// session's durable prefix intact for recovery.
func (s *Server) commit(sess *session) error {
	batch := sess.staged
	sess.staged = sess.staged[:0]
	// The queue's array outlives the request; keep no payload alive in it.
	defer clear(batch)
	if len(batch) == 0 {
		return nil
	}
	if j := s.cfg.Journal; j != nil {
		if sess.closed {
			return errChainClosed
		}
		if err := j.Append(batch...); err != nil {
			sess.closed = true
			s.warnf("session %s: %d records from seq %d lost: %v", sess.id, len(batch), batch[0].Seq, err)
			return err
		}
	}
	for _, rec := range batch {
		switch rec.Kind {
		case journal.KindAbort, journal.KindEnd:
			sess.closed = true
		case journal.KindSnapshot:
			sess.lastSnapSteps = sess.steps
			if s.tracer != nil {
				s.tracer.Emit(telemetry.Event{
					Kind:      telemetry.KindSnapshot,
					Name:      sess.id,
					Candidate: -1,
					Step:      sess.steps,
					Value:     float64(rec.Seq),
				})
			}
		}
	}
	return nil
}

// dropUnjournaled answers a transition whose record did not reach the
// journal, and drops the session from memory without a terminal record,
// as a lost lease does: the transition was never acknowledged, and the
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

// maybeSnapshot stages a session checkpoint when SnapshotInterval
// observations have accumulated since the last one. Callers hold the
// session mutex right after staging a suggestion, where recovery's fast
// path expects a snapshot: the advisor's search loop is parked on that
// suggestion, so the resume script and the trace recorder are quiescent
// and exportable. The snapshot record is seq-transparent: it carries the
// session's watermark without consuming a sequence number, so replay
// chains are unchanged whether snapshots exist or not. It joins the
// suggestion's write; a closed chain takes none.
func (s *Server) maybeSnapshot(sess *session) {
	if s.cfg.Journal == nil || s.cfg.SnapshotInterval <= 0 || sess.closed ||
		sess.steps-sess.lastSnapSteps < s.cfg.SnapshotInterval {
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
	payload, err := journal.EncodeSnapshot(journal.Snapshot{
		Fingerprint: sess.fingerprint,
		Watermark:   sess.seq,
		Script:      scriptJSON,
		Events:      eventsJSON,
	})
	if err != nil {
		s.warnf("session %s: snapshot skipped: %v", sess.id, err)
		return
	}
	sess.staged = append(sess.staged, journal.Record{Session: sess.id, Seq: sess.seq, Kind: journal.KindSnapshot, Request: payload})
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
