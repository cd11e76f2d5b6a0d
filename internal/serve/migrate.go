package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// This file is graceful live shard migration: a draining replica
// streams each owned shard's image — the shard lines compaction writes,
// every op of its live chains and the latest usable snapshot of each —
// directly to a successor over HTTP, instead of dying and making the
// successor re-read the shard from disk after lease expiry. The
// registry fences the handoff: the successor takes the lease over by
// citing the drainer's epoch, so a drainer that was paused and lost the
// shard some other way gets a refusal, not a double ownership.
//
// Ordering on the draining side: with every session mutex on the shard
// held, drop the shard's grant from the journal, whose appends check the
// grant under the same file mutex the drop takes, so nothing lands after
// it; handlers then answer 421 at their fences without advancing their
// advisors. Read the shard's image and POST it. On a 200 evict the
// shard's sessions; on a failure reinstate the grant and keep serving
// them, unless the registry says the grant moved. On the adopting side:
// read the whole stream with the scan recovery uses and refuse it if any
// line is bad, then transfer the lease (fencing), re-journal the
// streamed records write-ahead into the local directory (durability
// before service), and adopt through the same replay machinery recovery
// uses.

// MaxMigrateBytes bounds a migration stream's body: whole session
// chains, snapshots included, dwarf ordinary session requests.
const MaxMigrateBytes = 64 << 20

// errSessionMigrated is the salvage cause for sessions handed off to a
// successor replica; their advisors abort locally while the journal
// keeps the chain alive for the successor's replay.
var errSessionMigrated = errors.New("serve: session migrated to another replica")

// errLeaseLost is the salvage cause for sessions evicted because this
// replica's shard lease expired and was re-granted elsewhere.
var errLeaseLost = errors.New("serve: shard lease lost to another replica")

// shardLinesType is a migration stream's media type: shard lines, the
// journal's own format on disk, as Journal.Image renders them. The lease
// citation (shard, from, from_epoch) travels in the query.
const shardLinesType = "application/vnd.arrow.shard-lines"

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

// handleMigrate is the adopting side: read and check the whole stream,
// fence via lease transfer, re-journal the stream write-ahead, then
// adopt the sessions.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) int {
	j := s.cfg.Journal
	if j == nil {
		return writeErr(w, http.StatusServiceUnavailable, "no journal configured; cannot adopt shards")
	}
	if ct := r.Header.Get("Content-Type"); ct != shardLinesType {
		return writeErr(w, http.StatusUnsupportedMediaType, fmt.Sprintf("migration stream is %q, want %q", ct, shardLinesType))
	}
	q := r.URL.Query()
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 || shard >= j.Shards() {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("shard %q out of range (journal has %d)", q.Get("shard"), j.Shards()))
	}
	from := q.Get("from")
	fromEpoch, err := strconv.ParseUint(q.Get("from_epoch"), 10, 64)
	if from == "" || err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("migration stream cites no grant (from %q, from_epoch %q)", from, q.Get("from_epoch")))
	}

	// The stream is all or nothing, checked before the fence. A damaged
	// line's kind sits inside its damaged bytes, so it may be an op, and
	// adopting around a lost op would drop acknowledged observations of a
	// session the drainer evicts. Refused here, the lease never moves and
	// the drainer serves on.
	scan, err := journal.ReadImage(r.Body)
	if err == nil && (scan.TruncatedTails > 0 || len(scan.Damage) > 0) {
		err = fmt.Errorf("%d torn tail(s), damage %v", scan.TruncatedTails, scan.Damage)
	}
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("refusing migration stream: %v", err))
	}

	// Fence first: the lease moves (epoch bump) before any record is
	// accepted, so a drainer whose grant was superseded is refused here
	// and nothing it streamed can land.
	lease, ok, err := j.TakeOver(shard, from, fromEpoch)
	if err != nil {
		return writeErr(w, http.StatusServiceUnavailable, fmt.Sprintf("lease transfer failed: %v", err))
	}
	if !ok {
		return writeErr(w, http.StatusConflict,
			fmt.Sprintf("lease transfer refused: shard %d is not held by %q at epoch %d", shard, from, fromEpoch))
	}

	// Adopt on a background context: the sessions outlive this request,
	// and a replay tied to r.Context() would abort them all the moment
	// the drainer's POST returns.
	var report RecoveryReport
	s.importScan(context.Background(), []int{shard}, scan, &report)
	resp := MigrateResponse{
		Shard:            shard,
		Epoch:            lease.Epoch,
		Adopted:          report.Recovered,
		Observations:     report.Observations,
		SnapshotRestores: report.SnapshotRestores,
		Tombstones:       report.Ended + report.Tombstones,
		Damaged:          report.Damaged,
	}
	if s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindMigrate,
			Candidate: shard,
			Step:      resp.Adopted,
			Value:     float64(lease.Epoch),
			Detail:    "from " + from,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// migrateHTTP posts one shard's stream to the successor.
var migrateHTTP = &http.Client{Timeout: 5 * time.Minute}

// MigrateShards streams every owned shard's live sessions to the
// successor replica (a base URL like http://host:port), one shard at a
// time, evicting each shard's sessions locally as its handoff commits.
// Used by graceful shutdown in registry mode, so a planned restart
// moves sessions in milliseconds instead of making clients wait out
// lease expiry and a disk re-scan. A per-shard failure stops the drain
// and returns what moved; the failed shard, unless its grant moved, and
// those not yet drained keep serving here.
func (s *Server) MigrateShards(ctx context.Context, successor string) (*MigrateReport, error) {
	j := s.cfg.Journal
	if j == nil {
		return nil, errors.New("serve: no journal configured; nothing to migrate")
	}
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
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
	// Drop the grant with every session on the shard locked: a handler
	// either journaled its step before the drop or finds the shard
	// unowned at its fence and answers 421 without advancing its
	// advisor, so a failed hand-off can resume every session as it is.
	batch := s.shardSessions(shard)
	for _, sess := range batch {
		sess.mu.Lock()
	}
	lease, held := j.DropShard(shard)
	for _, sess := range batch {
		sess.mu.Unlock()
	}
	if !held {
		return nil // lost between Owned() and here; nothing to move
	}

	lines, damage, err := j.Image(shard)
	var resp *MigrateResponse
	if err == nil {
		resp, err = postMigrate(ctx, successor, j.Replica(), lease, lines)
	}
	if err != nil {
		// The POST failing does not mean the handoff failed: the
		// successor may have committed the transfer (epoch bumped) and
		// only the 200 was lost. Resuming on our stale grant would
		// double-serve the shard until the next heartbeat noticed, so the
		// registry re-verifies the grant first; if the successor owns the
		// shard now, evict rather than resume. A registry error reinstates
		// the grant, which its local expiry still fences, so only held
		// decides.
		if held, _ := j.Reinstate(lease); !held {
			s.evictShard(shard, errLeaseLost)
			return fmt.Errorf("handoff outcome lost and lease superseded; shard dropped: %w", err)
		}
		return err
	}

	// The successor owns the shard now (its transfer bumped the epoch):
	// the chains stay live for the successor's replay.
	s.evictShard(shard, errSessionMigrated)
	report.Shards = append(report.Shards, shard)
	report.Sessions += resp.Adopted
	report.Observations += resp.Observations
	report.Tombstones += resp.Tombstones
	// The shard's damage is reported once, by the drain that moved it.
	report.Damaged = append(report.Damaged, damage...)
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

// postMigrate ships one shard's image, citing the dropped grant, and
// decodes the verdict.
func postMigrate(ctx context.Context, successor, from string, l journal.Lease, lines []byte) (*MigrateResponse, error) {
	q := url.Values{"shard": {strconv.Itoa(l.Shard)}, "from": {from}, "from_epoch": {strconv.FormatUint(l.Epoch, 10)}}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, successor+"/v1/migrate?"+q.Encode(), bytes.NewReader(lines))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", shardLinesType)
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

// DropShards evicts every session on shards whose leases were lost,
// returning how many it evicted.
func (s *Server) DropShards(shards []int) int {
	if s.cfg.Journal == nil {
		return 0
	}
	evicted := 0
	for _, shard := range shards {
		evicted += s.evictShard(shard, errLeaseLost)
	}
	return evicted
}

// evictShard aborts and forgets every session on a shard this replica
// no longer holds, without journal terminal records: the chains belong
// to the shard's new owner, who replays them, and an end record here
// would tombstone a session another replica is about to serve. A lost
// lease lands in the audit stream as lease_expire. It returns the
// sessions evicted.
func (s *Server) evictShard(shard int, cause error) int {
	sessions := s.shardSessions(shard)
	for _, sess := range sessions {
		sess.advisor.Abort(cause)
		s.store.remove(sess.id)
	}
	if cause == errLeaseLost && s.tracer != nil {
		s.tracer.Emit(telemetry.Event{
			Kind:      telemetry.KindLeaseExpire,
			Candidate: shard,
			Step:      len(sessions),
			Detail:    s.cfg.Journal.Replica(),
		})
	}
	return len(sessions)
}

// shardSessions lists the live sessions on one journal shard.
func (s *Server) shardSessions(shard int) []*session {
	n := s.cfg.Journal.Shards()
	var out []*session
	for _, sess := range s.store.all() {
		if journal.ShardOf(sess.id, n) == shard {
			out = append(out, sess)
		}
	}
	return out
}
