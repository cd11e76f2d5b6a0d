package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// This file is graceful live shard migration: a draining replica
// streams each owned shard's live sessions — trimmed to create record +
// latest usable snapshot + post-watermark suffix, the compacted form —
// directly to a successor over HTTP, instead of dying and making the
// successor re-read the shard from disk after lease expiry. The
// registry fences the handoff: the successor takes the lease over by
// citing the drainer's epoch, so a drainer that was paused and lost the
// shard some other way gets a refusal, not a double ownership.
//
// Ordering on the draining side: mark the shard draining (new requests
// 421, in-flight handlers re-check under the session mutex), run a
// lock barrier over every session so the shard is quiescent, scan and
// trim, POST, and only on a 200 drop the sessions and the lease
// locally. On the adopting side: transfer the lease first (fencing),
// re-journal the streamed records write-ahead into the local directory
// (durability before service), then adopt through the same replay
// machinery recovery uses.

// MaxMigrateBytes bounds a migration stream's body: whole session
// chains, snapshots included, dwarf ordinary session requests.
const MaxMigrateBytes = 64 << 20

// createDrainHook, when non-nil, runs between a create record's append
// and handleCreate's post-append drain re-check — tests use it to land
// a drain exactly inside the race window. Never set in production.
var createDrainHook func()

// errSessionMigrated is the salvage cause for sessions handed off to a
// successor replica; their advisors abort locally while the journal
// keeps the chain alive for the successor's replay.
var errSessionMigrated = errors.New("serve: session migrated to another replica")

// errLeaseLost is the salvage cause for sessions evicted because this
// replica's shard lease expired and was re-granted elsewhere.
var errLeaseLost = errors.New("serve: shard lease lost to another replica")

// MigrateRequest is one shard's migration stream: the lease handoff
// citation plus every live chain (trimmed) and the ids owed a 410.
type MigrateRequest struct {
	Shard     int    `json:"shard"`
	From      string `json:"from"`
	FromEpoch uint64 `json:"from_epoch"`
	// Sessions are the live chains in record form, each trimmed to its
	// create record, latest usable snapshot and post-watermark suffix.
	Sessions [][]journal.Record `json:"sessions,omitempty"`
	// Tombstones are the shard's ended/compacted ids, so 410 Gone
	// survives the move.
	Tombstones []string `json:"tombstones,omitempty"`
}

// MigrateResponse reports what the successor adopted.
type MigrateResponse struct {
	Shard            int      `json:"shard"`
	Epoch            uint64   `json:"epoch"`
	Adopted          int      `json:"adopted"`
	Observations     int      `json:"observations"`
	SnapshotRestores int      `json:"snapshot_restores"`
	Tombstones       int      `json:"tombstones"`
	Damaged          []string `json:"damaged,omitempty"`
}

// MigrateReport is the draining side's summary over all shards moved.
type MigrateReport struct {
	Successor    string   `json:"successor"`
	Shards       []int    `json:"shards"`
	Sessions     int      `json:"sessions"`
	Observations int      `json:"observations"`
	Tombstones   int      `json:"tombstones"`
	Damaged      []string `json:"damaged,omitempty"`
}

// shardDraining reads the draining flag.
func (s *Server) shardDraining(shard int) bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining[shard]
}

func (s *Server) setDraining(shard int, on bool) {
	s.drainMu.Lock()
	if on {
		s.draining[shard] = true
	} else {
		delete(s.draining, shard)
	}
	s.drainMu.Unlock()
}

// fence answers 421 unless this replica may journal the session: it
// must hold a live lease on the session's shard, and the shard must not
// be draining. resolve checks it before the store lookup, and handlers
// check it again with the session mutex held — a handler that resolved
// its session just before the lease lapsed or the drain flag went up
// would otherwise append into a shard it no longer owns, or after the
// migration barrier declared the shard quiescent.
func (s *Server) fence(w http.ResponseWriter, id string) int {
	j := s.cfg.Journal
	switch {
	case j == nil:
		return 0
	case !j.Owns(id):
		return writeErr(w, http.StatusMisdirectedRequest,
			fmt.Sprintf("session %s maps to a journal shard this replica does not own; ask the owning replica", id))
	case s.shardDraining(journal.ShardOf(id, j.Shards())):
		return writeErr(w, http.StatusMisdirectedRequest,
			fmt.Sprintf("session %s maps to a journal shard mid-migration; retry against the cluster", id))
	}
	return 0
}

// handleMigrate is the adopting side: fence via lease transfer,
// re-journal the stream write-ahead, then adopt the sessions.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) int {
	j := s.cfg.Journal
	if j == nil {
		return writeErr(w, http.StatusServiceUnavailable, "no journal configured; cannot adopt shards")
	}
	var req MigrateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding migration stream: %v", err))
	}
	if req.Shard < 0 || req.Shard >= j.Shards() {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("shard %d out of range (journal has %d)", req.Shard, j.Shards()))
	}
	if req.From == "" {
		return writeErr(w, http.StatusBadRequest, "migration stream names no source replica")
	}

	// Fence first: the lease moves (epoch bump) before any record is
	// accepted, so a drainer whose grant was superseded is refused here
	// and nothing it streamed can land.
	lease, ok, err := j.TakeOver(req.Shard, req.From, req.FromEpoch)
	if err != nil {
		return writeErr(w, http.StatusServiceUnavailable, fmt.Sprintf("lease transfer failed: %v", err))
	}
	if !ok {
		return writeErr(w, http.StatusConflict,
			fmt.Sprintf("lease transfer refused: shard %d is not held by %q at epoch %d", req.Shard, req.From, req.FromEpoch))
	}

	resp := MigrateResponse{Shard: req.Shard, Epoch: lease.Epoch}
	scan := &journal.Recovery{}
	for _, chain := range req.Sessions {
		if len(chain) == 0 {
			continue
		}
		id := chain[0].Session
		// The transfer fenced exactly req.Shard; a chain hashing
		// elsewhere would re-journal into a shard outside the fence —
		// silent corruption if this replica owns it, a stray file if not.
		if got := journal.ShardOf(id, j.Shards()); got != req.Shard {
			resp.Damaged = append(resp.Damaged,
				fmt.Sprintf("session %s: maps to shard %d, not migrating shard %d", id, got, req.Shard))
			continue
		}
		sort.SliceStable(chain, func(a, b int) bool { return chain[a].Seq < chain[b].Seq })
		log, ended, problem := journal.ValidateChain(id, chain)
		if problem != "" {
			resp.Damaged = append(resp.Damaged, problem)
			continue
		}
		// Write-ahead: the streamed chain must be durable in our own
		// directory before its session is served from here.
		appendFailed := false
		for _, rec := range log.Records {
			if err := j.Append(rec); err != nil {
				resp.Damaged = append(resp.Damaged, fmt.Sprintf("session %s: journaling migrated chain: %v", id, err))
				appendFailed = true
				break
			}
		}
		if appendFailed {
			continue
		}
		if ended {
			scan.Ended = append(scan.Ended, id)
		} else {
			scan.Live = append(scan.Live, log)
		}
	}
	var ids []string
	for _, id := range req.Tombstones {
		if journal.ShardOf(id, j.Shards()) == req.Shard {
			ids = append(ids, id)
		} else {
			resp.Damaged = append(resp.Damaged,
				fmt.Sprintf("tombstone %s: maps outside migrating shard %d", id, req.Shard))
		}
	}
	if len(ids) > 0 {
		sort.Strings(ids)
		if err := j.AppendShard(req.Shard, journal.Record{Kind: journal.KindTombstoneIndex, Tombstones: ids}); err != nil {
			resp.Damaged = append(resp.Damaged, fmt.Sprintf("shard %d: journaling %d migrated tombstones: %v", req.Shard, len(ids), err))
		} else {
			scan.Tombstones = ids
		}
	}

	// Adopt on a background context: the sessions outlive this request,
	// and a replay tied to r.Context() would abort them all the moment
	// the drainer's POST returns.
	var report RecoveryReport
	s.adoptScan(context.Background(), scan, &report)
	resp.Adopted = report.Recovered
	resp.Observations = report.Observations
	resp.SnapshotRestores = report.SnapshotRestores
	resp.Tombstones = report.Ended + report.Tombstones
	resp.Damaged = append(resp.Damaged, report.Damaged...)
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindMigrate,
			Candidate: req.Shard,
			Step:      resp.Adopted,
			Value:     float64(lease.Epoch),
			Detail:    "from " + req.From,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// migrateHTTP posts one shard's stream to the successor.
var migrateHTTP = &http.Client{Timeout: 5 * time.Minute}

// MigrateShards streams every owned shard's live sessions to the
// successor replica (a base URL like http://host:port) and drops the
// shards locally as each handoff commits. Used by graceful shutdown in
// registry mode, so a planned restart moves sessions in milliseconds
// instead of making clients wait out lease expiry and a disk re-scan.
// A per-shard failure stops the drain and returns what moved; the
// shards not yet drained keep serving here.
func (s *Server) MigrateShards(ctx context.Context, successor string) (*MigrateReport, error) {
	j := s.cfg.Journal
	if j == nil {
		return nil, errors.New("serve: no journal configured; nothing to migrate")
	}
	report := &MigrateReport{Successor: successor}
	for _, shard := range j.Owned() {
		if err := s.migrateShard(ctx, successor, shard, report); err != nil {
			return report, fmt.Errorf("serve: migrating shard %d to %s: %w", shard, successor, err)
		}
	}
	return report, nil
}

func (s *Server) migrateShard(ctx context.Context, successor string, shard int, report *MigrateReport) error {
	j := s.cfg.Journal
	lease, held := j.Lease(shard)
	if !held {
		return nil // lost between Owned() and here; nothing to move
	}
	s.setDraining(shard, true)
	committed := false
	defer func() {
		if !committed {
			s.setDraining(shard, false)
		}
	}()

	// Barrier: every handler that resolved a session on this shard
	// before the flag went up holds the session mutex until its append
	// lands; taking and releasing both locks guarantees the scan below
	// sees a quiescent shard.
	var moving []*session
	for _, sess := range s.store.all() {
		if journal.ShardOf(sess.id, j.Shards()) != shard {
			continue
		}
		sess.mu.Lock()
		sess.jmu.Lock()
		sess.jmu.Unlock() //nolint:staticcheck // barrier, not critical section
		sess.mu.Unlock()
		moving = append(moving, sess)
	}

	scan, err := j.ScanShards([]int{shard})
	if err != nil {
		return err
	}
	req := MigrateRequest{Shard: shard, From: j.Replica(), FromEpoch: lease.Epoch}
	for _, log := range scan.Live {
		trimmed, _ := journal.TrimToSnapshot(log.Records)
		req.Sessions = append(req.Sessions, trimmed)
	}
	seen := make(map[string]bool)
	for _, id := range scan.Ended {
		if !seen[id] {
			seen[id] = true
			req.Tombstones = append(req.Tombstones, id)
		}
	}
	for _, id := range scan.Tombstones {
		if !seen[id] {
			seen[id] = true
			req.Tombstones = append(req.Tombstones, id)
		}
	}
	report.Damaged = append(report.Damaged, scan.Damage...)

	resp, err := postMigrate(ctx, successor, req)
	if err != nil {
		// The POST failing does not mean the handoff failed: the
		// successor may have committed the transfer (epoch bumped) and
		// only the 200 was lost. Resuming on our stale, locally-unexpired
		// lease would double-serve the shard until the next heartbeat
		// notices. Re-verify the grant with the registry first; if the
		// epoch was superseded, the successor owns the shard — evict
		// rather than resume.
		held, rerr := j.RenewShard(shard)
		if rerr == nil && !held {
			for _, sess := range moving {
				sess.advisor.Abort(errLeaseLost)
				s.store.remove(sess.id)
			}
			j.DropShard(shard)
			if s.tracer != nil {
				s.tracer.Emit(telemetry.Event{
					Kind:      telemetry.KindLeaseExpire,
					Candidate: shard,
					Step:      len(moving),
					Detail:    j.Replica(),
				})
			}
			return fmt.Errorf("handoff outcome lost and lease superseded; shard dropped: %w", err)
		}
		// Grant still ours (or registry unreachable — local expiry
		// fencing covers that): the transfer did not commit, resume.
		return err
	}

	// The successor owns the shard now (its transfer bumped the epoch):
	// drop the sessions locally without journaling terminal records —
	// the chains stay live for the successor's replay — and forget the
	// lease without releasing it.
	for _, sess := range moving {
		sess.advisor.Abort(errSessionMigrated)
		s.store.remove(sess.id)
	}
	j.DropShard(shard)
	committed = true
	s.setDraining(shard, false)

	report.Shards = append(report.Shards, shard)
	report.Sessions += resp.Adopted
	report.Observations += resp.Observations
	report.Tombstones += resp.Tombstones
	report.Damaged = append(report.Damaged, resp.Damaged...)
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindMigrate,
			Candidate: shard,
			Step:      resp.Adopted,
			Value:     float64(resp.Epoch),
			Detail:    "to " + successor,
		})
	}
	return nil
}

// postMigrate ships one shard stream and decodes the verdict.
func postMigrate(ctx context.Context, successor string, req MigrateRequest) (*MigrateResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshaling stream: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, successor+"/v1/migrate", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := migrateHTTP.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if hresp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(body))
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, fmt.Errorf("successor answered %d: %s", hresp.StatusCode, msg)
	}
	var resp MigrateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &resp, nil
}

// DropShards evicts every session on the given shards without journal
// terminal records — the lease was lost, so the new owner replays them
// from the journal; writing an end record here would tombstone a
// session another replica is about to serve. Returns the sessions
// evicted.
func (s *Server) DropShards(shards []int) int {
	j := s.cfg.Journal
	if j == nil || len(shards) == 0 {
		return 0
	}
	set := make(map[int]bool, len(shards))
	for _, shard := range shards {
		set[shard] = true
	}
	perShard := make(map[int]int, len(shards))
	dropped := 0
	for _, sess := range s.store.all() {
		shard := journal.ShardOf(sess.id, j.Shards())
		if !set[shard] {
			continue
		}
		sess.advisor.Abort(errLeaseLost)
		s.store.remove(sess.id)
		perShard[shard]++
		dropped++
	}
	if s.tracer != nil {
		for _, shard := range shards {
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindLeaseExpire,
				Candidate: shard,
				Step:      perShard[shard],
				Detail:    j.Replica(),
			})
		}
	}
	return dropped
}
