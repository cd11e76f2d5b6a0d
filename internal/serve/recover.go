package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	arrow "repro"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// RecoveryReport summarizes what Recover rebuilt from the journal.
type RecoveryReport struct {
	// Replica and OwnedShards identify this process's slice of the
	// journal directory.
	Replica     string `json:"replica"`
	OwnedShards []int  `json:"owned_shards"`
	// Recovered counts the live sessions rehydrated, Observations the
	// measurements replayed into them.
	Recovered    int `json:"recovered"`
	Observations int `json:"observations"`
	// SnapshotRestores counts the sessions rebuilt from a snapshot
	// (surrogate fits skipped below the watermark) rather than a full
	// replay from the chain head.
	SnapshotRestores int `json:"snapshot_restores"`
	// Ended counts the journal-terminal sessions tombstoned (their late
	// requests answer 410 Gone across the restart).
	Ended int `json:"ended"`
	// Tombstones counts the session ids restored from compaction's
	// tombstone_index records — ended sessions whose chains are gone but
	// still answer 410.
	Tombstones int `json:"tombstones"`
	// TruncatedTails counts shard files whose torn final write (the
	// kill -9 signature) was truncated away.
	TruncatedTails int `json:"truncated_tails"`
	// RecoverP50Micros / RecoverP99Micros are per-session rebuild
	// latency percentiles: with snapshots, bounded by the snapshot
	// interval; without, by the session length.
	RecoverP50Micros int64 `json:"recover_p50_micros"`
	RecoverP99Micros int64 `json:"recover_p99_micros"`
	// Damaged reports every session or line the scan could not use; the
	// rest of the journal recovered anyway.
	Damaged []string `json:"damaged,omitempty"`
}

// ReclaimReport is a ReclaimShards outcome: the shards newly claimed
// from dead peers plus the recovery of their sessions.
type ReclaimReport struct {
	Claimed []int `json:"claimed"`
	// ForeignDirs lists the dead peers' journal directories the claimed
	// sessions were adopted (and re-journaled) from — non-empty only in
	// registry mode, where each replica journals into its own directory.
	ForeignDirs []string `json:"foreign_dirs,omitempty"`
	RecoveryReport
}

// Recover scans this replica's journal shards and rehydrates every live
// session: the create record rebuilds the optimizer through the same
// BuildOptimizer path as the HTTP handler, and replaying the journaled
// observation sequence into the fresh advisor reproduces the exact
// pre-crash state — suggestions, result and wall-stripped trace — by
// the determinism contract. A session with a usable snapshot replays
// the ops below its watermark with the recorded resume script (no
// surrogate refits); snapshot damage of any kind falls back to a full
// replay.
// Sessions whose journal says ended are tombstoned (410). Call it once,
// after New and before serving; with no journal configured it is a
// no-op.
func (s *Server) Recover(ctx context.Context) (*RecoveryReport, error) {
	j := s.cfg.Journal
	if j == nil {
		return &RecoveryReport{}, nil
	}
	report := &RecoveryReport{
		Replica:     j.Replica(),
		OwnedShards: j.Owned(),
	}
	// Boot-time claims can already be takeovers: in registry mode a
	// fresh replica may win a dead peer's expired shards at Open, and
	// those sessions live in the peer's journal directory, not ours.
	leases := make([]journal.Lease, 0, len(report.OwnedShards))
	for _, shard := range report.OwnedShards {
		if l, ok := j.Lease(shard); ok {
			leases = append(leases, l)
		}
	}
	if _, err := s.adoptLeases(ctx, leases, report); err != nil {
		return nil, err
	}
	return report, nil
}

// adoptLeases adopts the sessions behind a batch of just-claimed
// grants. Shards whose previous holder journaled into this replica's
// own directory (the shared-filesystem topology, or a first grant)
// scan locally with tail repair; shards claimed from a dead cross-host
// peer scan the peer's directory read-only and re-journal everything
// adopted into our own directory first, so this replica is
// self-sufficient for the next failover. It returns the foreign
// directories visited, sorted.
func (s *Server) adoptLeases(ctx context.Context, leases []journal.Lease, report *RecoveryReport) ([]string, error) {
	j := s.cfg.Journal
	var ownShards []int
	foreign := make(map[string][]int)
	for _, l := range leases {
		if l.PrevDataDir == "" || l.PrevDataDir == j.Dir() {
			ownShards = append(ownShards, l.Shard)
		} else {
			foreign[l.PrevDataDir] = append(foreign[l.PrevDataDir], l.Shard)
		}
	}
	if len(ownShards) > 0 {
		scan, err := j.ScanShards(ownShards)
		if err != nil {
			return nil, err
		}
		report.TruncatedTails += scan.TruncatedTails
		s.adoptScan(ctx, scan, report)
	}
	dirs := make([]string, 0, len(foreign))
	for dir := range foreign {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		scan, err := journal.ScanDir(dir, foreign[dir], s.warnf)
		if err != nil {
			// The peer's directory may be gone or unreachable; the shard
			// is still serviceable for new sessions, so report the loss
			// and keep going rather than refusing the lease.
			report.Damaged = append(report.Damaged,
				fmt.Sprintf("shards %v: scanning previous holder's directory %s: %v", foreign[dir], dir, err))
			continue
		}
		report.TruncatedTails += scan.TruncatedTails
		s.importScan(ctx, foreign[dir], scan, report)
	}
	return dirs, nil
}

// importScan adopts a scan read from outside this replica's journal —
// a dead peer's directory or a drain's stream — into shards this
// replica was just granted. Every id must map into one of those shards;
// the rest are reported as damage, never journaled into a shard the
// grant did not fence. Live chains are re-journaled verbatim first, one
// Append per chain (write-ahead: the records must be locally durable
// before their sessions are served again; a chain mixing session ids is
// refused whole), the ended and tombstoned ids collapse
// into one tombstone_index record per shard for 410 continuity, and then
// the scan is adopted as usual. Records keep their original session and
// seq, so a chain that bounces back to a directory that already holds a
// prefix of it just produces the byte-identical duplicates the scan
// dedup drops.
func (s *Server) importScan(ctx context.Context, shards []int, scan *journal.Recovery, report *RecoveryReport) {
	j := s.cfg.Journal
	fenced := func(what, id string) (int, bool) {
		shard := journal.ShardOf(id, j.Shards())
		if !slices.Contains(shards, shard) {
			scan.Damage = append(scan.Damage, fmt.Sprintf("%s %s: maps to shard %d, outside adopted shards %v", what, id, shard, shards))
			return shard, false
		}
		return shard, true
	}
	live := scan.Live[:0]
	for _, log := range scan.Live {
		if _, ok := fenced("session", log.ID); !ok {
			continue
		}
		if err := j.Append(log.Records...); err != nil {
			scan.Damage = append(scan.Damage, fmt.Sprintf("session %s: re-journaling adopted chain: %v", log.ID, err))
			continue
		}
		live = append(live, log)
	}
	scan.Live = live
	byShard := make([][]string, j.Shards())
	tomb := func(ids []string) []string {
		kept := ids[:0]
		for _, id := range ids {
			if shard, ok := fenced("tombstone", id); ok {
				byShard[shard] = append(byShard[shard], id)
				kept = append(kept, id)
			}
		}
		return kept
	}
	scan.Ended = tomb(scan.Ended)
	scan.Tombstones = tomb(scan.Tombstones)
	for shard, ids := range byShard {
		if len(ids) == 0 {
			continue
		}
		sort.Strings(ids)
		if err := j.AppendShard(shard, journal.Record{Kind: journal.KindTombstoneIndex, Tombstones: ids}); err != nil {
			scan.Damage = append(scan.Damage, fmt.Sprintf("shard %d: re-journaling %d adopted tombstones: %v", shard, len(ids), err))
		}
	}
	s.adoptScan(ctx, scan, report)
}

// ReclaimShards takes over journal shards whose lease holders are
// provably dead (kill -9'd peers) and adopts their sessions, exactly as
// Recover does at boot. Survivors run it periodically so a dead
// replica's sessions migrate without an operator. With no journal, or
// nothing claimable, the report's Claimed list is empty.
func (s *Server) ReclaimShards(ctx context.Context) (*ReclaimReport, error) {
	j := s.cfg.Journal
	if j == nil {
		return &ReclaimReport{}, nil
	}
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	leases, err := j.Reclaim()
	if err != nil {
		return nil, err
	}
	claimed := make([]int, 0, len(leases))
	for _, l := range leases {
		claimed = append(claimed, l.Shard)
	}
	report := &ReclaimReport{Claimed: claimed}
	report.Replica = j.Replica()
	report.OwnedShards = j.Owned()
	if len(leases) == 0 {
		return report, nil
	}
	dirs, err := s.adoptLeases(ctx, leases, &report.RecoveryReport)
	if err != nil {
		return nil, err
	}
	report.ForeignDirs = dirs
	if s.tracer != nil {
		for _, l := range leases {
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindLeaseAcquire,
				Candidate: l.Shard,
				Value:     float64(l.Epoch),
				Detail:    l.PrevReplica,
			})
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindShardReclaim,
				Candidate: l.Shard,
				Step:      len(s.shardSessions(l.Shard)),
				Detail:    j.Replica(),
			})
		}
	}
	return report, nil
}

// CompactJournal compacts every owned shard under the given thresholds,
// emitting one compact audit event per shard scanned. With no journal
// it is a no-op.
func (s *Server) CompactJournal(opts journal.CompactOptions) ([]journal.CompactStats, error) {
	j := s.cfg.Journal
	if j == nil {
		return nil, nil
	}
	stats, err := j.CompactOwned(opts)
	if s.tracer != nil {
		for _, st := range stats {
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindCompact,
				Candidate: st.Shard,
				Step:      st.DroppedEnded + st.DroppedDamaged,
				Value:     float64(st.BytesBefore),
				Aux:       float64(st.BytesAfter),
				Detail:    st.SkipReason,
			})
		}
	}
	return stats, err
}

// adoptScan folds one journal scan into the server: tombstones for
// ended and compacted-away sessions, a rehydrated session per live
// chain, audit events, and the id counter seeded past everything seen.
// Shared by boot recovery and runtime shard reclaim.
func (s *Server) adoptScan(ctx context.Context, scan *journal.Recovery, report *RecoveryReport) {
	report.Damaged = append(report.Damaged, scan.Damage...)
	maxID := int64(0)
	for _, id := range scan.Ended {
		s.store.tomb(id)
		report.Ended++
		maxID = maxNumericID(maxID, id)
	}
	for _, id := range scan.Tombstones {
		s.store.tomb(id)
		report.Tombstones++
		maxID = maxNumericID(maxID, id)
	}
	var latencies []time.Duration
	for _, log := range scan.Live {
		maxID = maxNumericID(maxID, log.ID)
		t0 := time.Now()
		sess, obs, restored, err := s.replaySession(ctx, log)
		if err != nil {
			report.Damaged = append(report.Damaged, fmt.Sprintf("session %s: replay failed: %v", log.ID, err))
			continue
		}
		latencies = append(latencies, time.Since(t0))
		evicted, err := s.store.add(sess)
		s.finalizeEvicted(evicted)
		if err != nil {
			// The cap held even after sweeping: salvage the session
			// rather than dropping it silently.
			s.finalize(sess, ErrStoreFull, "evicted")
			report.Damaged = append(report.Damaged, fmt.Sprintf("session %s: recovered but store full; salvaged as evicted", log.ID))
			continue
		}
		report.Recovered++
		report.Observations += obs
		if restored {
			report.SnapshotRestores++
		}
		if s.tracer != nil {
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindSessionRecover,
				Name:      sess.id,
				Seed:      sess.seed,
				Candidate: -1,
				Step:      obs,
				Detail:    sess.method + "/" + sess.objective,
			})
		}
	}
	report.RecoverP50Micros = percentileMicros(latencies, 0.50)
	report.RecoverP99Micros = percentileMicros(latencies, 0.99)
	for _, d := range report.Damaged {
		if s.tracer != nil {
			s.tracer.Emit(telemetry.Event{
				Kind:      telemetry.KindJournalDamage,
				Candidate: -1,
				Detail:    d,
			})
		}
	}
	// Seed the id counter past everything the journal has seen so new
	// sessions never collide with recovered or tombstoned ones.
	for {
		cur := s.nextID.Load()
		if cur >= maxID || s.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}
}

// percentileMicros reads the q-quantile of a latency sample, in
// microseconds (nearest-rank on the sorted sample; 0 for an empty one).
func percentileMicros(lat []time.Duration, q float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Microseconds()
}

// replaySession rebuilds one live session from its journal log,
// returning the rehydrated session, the observation count replayed, and
// whether the snapshot fast path was used. The chain holds every op, so
// a snapshot restore that fails for any reason — undecodable script or
// trace, replay divergence — falls back to a full replay, as a missing
// or unusable snapshot does.
func (s *Server) replaySession(ctx context.Context, log journal.SessionLog) (*session, int, bool, error) {
	snap, at := journal.LatestSnapshot(log.Records)
	if snap != nil && parkedAt(log.Records, at) {
		sess, obs, err := s.replayChain(ctx, log, snap, true)
		if err == nil {
			return sess, obs, true, nil
		}
		s.warnf("session %s: snapshot restore failed (%v); falling back to full replay", log.ID, err)
	}
	sess, obs, err := s.replayChain(ctx, log, snap, false)
	return sess, obs, false, err
}

// parkedAt gates the fast path: the op right below the snapshot at
// records[at] must be a suggestion — capture always runs right after a
// suggest append, so anything else is a foreign snapshot whose replay
// could not park the search loop at the gate-opening point.
func parkedAt(records []journal.Record, at int) bool {
	for i := at - 1; i > 0; i-- {
		switch records[i].Kind {
		case journal.KindSnapshot: // seq-transparent: look below it
		case journal.KindSuggest, journal.KindSuggestBatch:
			return true
		default:
			return false
		}
	}
	return false
}

// gateTracer discards events until opened: a snapshot restore replays
// the pre-watermark ops with the surrogate fits skipped, so the events
// that replay emits are incomplete — the snapshot's stored trace is
// substituted instead, and the gate opens for the suffix, which
// regenerates in full.
type gateTracer struct {
	open  atomic.Bool
	inner telemetry.Tracer
}

func (g *gateTracer) Emit(e telemetry.Event) {
	if g.open.Load() {
		g.inner.Emit(e)
	}
}

// replayChain rebuilds one session from its chain's ops; snap is the
// chain's latest usable snapshot, if any. With useSnap, the ops below
// the snapshot's watermark replay against a resumed advisor consuming
// the recorded decision script — no surrogate fits — behind a closed
// trace gate; at the watermark the recorder is seeded with the
// snapshot's stored events and the gate opens. Without useSnap this is
// the plain full replay.
func (s *Server) replayChain(ctx context.Context, log journal.SessionLog, snap *journal.Snapshot, useSnap bool) (*session, int, error) {
	id, create := log.ID, log.Records[0]
	req, err := DecodeSessionRequest(create.Request)
	if err != nil {
		return nil, 0, fmt.Errorf("create record: %w", err)
	}
	var script arrow.ResumeScript
	var snapEvents []telemetry.Event
	if useSnap {
		if len(snap.Script) > 0 {
			if err := json.Unmarshal(snap.Script, &script); err != nil {
				// Advisory only — an unreadable script costs the fit skip,
				// not correctness — but the stored trace is positional, so
				// give up on the fast path entirely.
				return nil, 0, fmt.Errorf("snapshot script: %w", err)
			}
		}
		if req.Trace {
			if len(snap.Events) == 0 {
				return nil, 0, errors.New("snapshot has no stored trace for a traced session")
			}
			if err := json.Unmarshal(snap.Events, &snapEvents); err != nil {
				return nil, 0, fmt.Errorf("snapshot trace: %w", err)
			}
		}
	}

	sess := &session{id: id, seed: req.Seed, journaledSeq: -1}
	sess.fingerprint = journal.Fingerprint(create.Request)
	sinks := []telemetry.Tracer{}
	if req.Trace {
		sess.recorder = telemetry.NewRecorder()
		sinks = append(sinks, sess.recorder)
	}
	if s.tracer != nil {
		sinks = append(sinks, &sessionTracer{id: id, sink: s.tracer})
	}
	tracer := telemetry.Multi(sinks...)
	var gate *gateTracer
	if useSnap && tracer != nil {
		gate = &gateTracer{inner: tracer}
		tracer = gate
	}
	opt, candidates, err := BuildOptimizer(req, arrow.WithTracer(tracer))
	if err != nil {
		return nil, 0, fmt.Errorf("rebuilding optimizer: %w", err)
	}
	sess.method = opt.Method().String()
	sess.objective = opt.Objective().String()
	var advisor *arrow.Advisor
	if useSnap {
		advisor, err = opt.NewResumedAdvisor(candidates, script)
	} else {
		advisor, err = opt.NewAdvisor(candidates)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("restarting advisor: %w", err)
	}
	sess.advisor = advisor

	obs, ops := 0, 0
	fail := func(format string, args ...any) (*session, int, error) {
		advisor.Abort(errSessionAborted)
		return nil, 0, fmt.Errorf(format, args...)
	}
	for _, rec := range log.Records[1:] {
		if rec.Kind == journal.KindSnapshot {
			continue
		}
		ops++
		switch rec.Kind {
		case journal.KindSuggest:
			sug, err := advisor.Next(ctx)
			if err != nil {
				return fail("seq %d: regenerating suggestion: %v", rec.Seq, err)
			}
			if sug.Done {
				return fail("seq %d: journal has a suggestion but the replayed search is done", rec.Seq)
			}
			if sug.Index != rec.Index || sug.Step != rec.Step {
				// The journal and the optimizer disagree — a version skew
				// or corruption the CRC could not see. Refuse to serve a
				// diverged session.
				return fail("seq %d: replay diverged: journal suggested candidate %d at step %d, replay suggests %d at %d",
					rec.Seq, rec.Index, rec.Step, sug.Index, sug.Step)
			}
			if sug.Seq > sess.journaledSeq {
				sess.journaledSeq = sug.Seq
			}
		case journal.KindSuggestBatch:
			sugs, err := advisor.NextBatch(ctx, rec.K)
			if err != nil {
				return fail("seq %d: regenerating suggestion batch: %v", rec.Seq, err)
			}
			if sugs[0].Done {
				return fail("seq %d: journal has a suggestion batch but the replayed search is done", rec.Seq)
			}
			if len(sugs) != len(rec.Indices) {
				return fail("seq %d: replay diverged: journal batch has %d suggestions, replay has %d",
					rec.Seq, len(rec.Indices), len(sugs))
			}
			for i, sug := range sugs {
				if sug.Index != rec.Indices[i] {
					return fail("seq %d: replay diverged: journal batch suggested candidate %d at position %d, replay suggests %d",
						rec.Seq, rec.Indices[i], i, sug.Index)
				}
				if sug.Seq > sess.journaledSeq {
					sess.journaledSeq = sug.Seq
				}
			}
		case journal.KindObserve:
			err := advisor.Observe(rec.Index, arrow.Outcome{
				TimeSec: rec.TimeSec,
				CostUSD: rec.CostUSD,
				Metrics: rec.Metrics,
			})
			if err != nil {
				return fail("seq %d: replaying observation: %v", rec.Seq, err)
			}
			obs++
			sess.steps++
		case journal.KindObserveFailure:
			if err := advisor.ObserveFailure(rec.Index, errors.New(rec.Reason)); err != nil {
				return fail("seq %d: replaying observe-failure: %v", rec.Seq, err)
			}
			obs++
		default:
			return fail("seq %d: unexpected %s record in a live session", rec.Seq, rec.Kind)
		}
		if snap == nil || rec.Seq != snap.Watermark-1 {
			continue
		}
		// The last op below the watermark: the capture cadence resumes
		// from the snapshot's observation count.
		sess.lastSnapSteps = sess.steps
		if useSnap {
			// The prefix ends on a suggest, so the search loop is parked:
			// substitute the stored trace for the gated-away prefix events
			// and let the suffix regenerate through the open gate.
			for _, e := range snapEvents {
				sess.recorder.Emit(e)
			}
			if gate != nil {
				gate.open.Store(true)
			}
		}
	}
	// The journal sequence continues after the last op (snapshot records
	// are seq-transparent).
	sess.seq = 1 + ops
	sess.observed = obs
	return sess, obs, nil
}

// maxNumericID folds a session id's numeric suffix into the running
// maximum (ids are "s-%06d"; foreign shapes are ignored).
func maxNumericID(cur int64, id string) int64 {
	rest, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return cur
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n <= cur {
		return cur
	}
	return n
}
