package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	arrow "repro"
	"repro/internal/journal"
)

// snapshotServer is journaledServer with session checkpointing on: every
// interval accepted observations the server journals a snapshot.
func snapshotServer(t *testing.T, dir, replica string, interval int, opts ...journal.Option) (*Server, *client, *journal.Journal) {
	t.Helper()
	opts = append([]journal.Option{journal.WithReplica(replica)}, opts...)
	j, err := journal.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Journal: j, Warnf: t.Logf, SnapshotInterval: interval})
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, newClient(t, hs), j
}

// sessionSnapshots reads every snapshot record of one session straight
// from its shard file, in file order.
func sessionSnapshots(t *testing.T, dir string, shards int, id string) []journal.Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, shardName(journal.ShardOf(id, shards))))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []journal.Record
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := journal.DecodeLine(line)
		if err != nil {
			t.Fatalf("shard line undecodable: %v", err)
		}
		if rec.Session == id && rec.Kind == journal.KindSnapshot {
			snaps = append(snaps, rec)
		}
	}
	return snaps
}

// TestSnapshotRecoverByteIdentical is the snapshot acceptance test: a
// session checkpointed every 2 observations, abandoned mid-flight and
// rebuilt through the snapshot fast path must finish with a result —
// recommendation AND wall-stripped trace — byte-identical to an
// uninterrupted journal-less run.
func TestSnapshotRecoverByteIdentical(t *testing.T) {
	// The negative delta threshold disables the stop rule so the session
	// is genuinely mid-flight at the crash point.
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 12}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	dir := t.TempDir()
	_, c1, j1 := snapshotServer(t, dir, "snap", 2)
	info := c1.create(req)
	if sug := stepSession(t, c1, info.ID, target, 5); sug.Done {
		t.Fatal("session finished before the crash point; pick a longer method")
	}
	j1.Close() // abandon (kill -9 semantics)

	s2, c2, j2 := snapshotServer(t, dir, "snap", 2)
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 5 {
		t.Fatalf("recovered %d sessions / %d observations, want 1/5 (report %+v)", report.Recovered, report.Observations, report)
	}
	if report.SnapshotRestores != 1 {
		t.Fatalf("session did not restore through the snapshot fast path: %+v", report)
	}
	if len(report.Damaged) != 0 {
		t.Fatalf("clean journal reported damage: %v", report.Damaged)
	}
	if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("snapshot-restored result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	_ = j2
}

// TestSnapshotWatermarkMonotonic pins the snapshot-record invariants on
// a real journal: every snapshot decodes, carries the create record's
// fingerprint, journals Seq equal to its watermark, and successive
// watermarks of one session are strictly increasing.
func TestSnapshotWatermarkMonotonic(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, c, j := snapshotServer(t, dir, "mono", 1)
	info := c.create(SessionRequest{Method: "naive-bo", Seed: 9, Trace: true, EIStopFraction: 1e-9, MaxMeasurements: 12})
	stepSession(t, c, info.ID, target, 6)

	// The create record's fingerprint, read back from the journal itself.
	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var fp string
	for _, log := range scan.Live {
		if log.ID == info.ID {
			fp = journal.Fingerprint(log.Records[0].Request)
		}
	}
	if fp == "" {
		t.Fatal("session create record not found in scan")
	}

	snaps := sessionSnapshots(t, dir, j.Shards(), info.ID)
	if len(snaps) < 2 {
		t.Fatalf("interval 1 over 6 observations produced %d snapshots, want several", len(snaps))
	}
	prev := 0
	for i, rec := range snaps {
		snap, err := journal.DecodeSnapshot(rec.Request)
		if err != nil {
			t.Fatalf("snapshot %d undecodable: %v", i, err)
		}
		if snap.Watermark != rec.Seq {
			t.Fatalf("snapshot %d journals seq %d but carries watermark %d", i, rec.Seq, snap.Watermark)
		}
		if snap.Watermark <= prev {
			t.Fatalf("snapshot %d watermark %d not above predecessor %d", i, snap.Watermark, prev)
		}
		prev = snap.Watermark
		if snap.Fingerprint != fp {
			t.Fatalf("snapshot %d fingerprint %s, create record hashes to %s", i, snap.Fingerprint, fp)
		}
	}
}

// breakSnapshot flips one fingerprint character inside a snapshot
// payload, or inside a shard line that carries one, in place. Under a
// re-sealed line the snapshot no longer matches its session, so it is
// unusable; on a stream as sent, the line's CRC fails. It reports false,
// changing nothing, for bytes with no fingerprint field.
func breakSnapshot(payload []byte) bool {
	idx := bytes.Index(payload, []byte(`"fp":"`))
	if idx < 0 {
		return false
	}
	pos := idx + len(`"fp":"`)
	if payload[pos] == 'f' {
		payload[pos] = '0'
	} else {
		payload[pos] = 'f'
	}
	return true
}

// breakShardSnapshots rewrites a session's shard with every snapshot
// payload of the session broken by breakSnapshot, each line re-sealed
// so its line-level CRC stays valid. It returns the snapshots broken.
func breakShardSnapshots(t *testing.T, dir string, shards int, id string) int {
	t.Helper()
	return rewriteShardSnapshots(t, dir, shards, id, func(payload []byte) []byte {
		if !breakSnapshot(payload) {
			t.Fatal("snapshot payload has no fingerprint field")
		}
		return payload
	})
}

// rewriteShardSnapshots rewrites a session's shard with every snapshot
// payload of the session passed through rewrite, each line re-sealed so
// its line-level CRC stays valid. It returns the snapshots rewritten.
func rewriteShardSnapshots(t *testing.T, dir string, shards int, id string, rewrite func(payload []byte) []byte) int {
	t.Helper()
	shard := filepath.Join(dir, shardName(journal.ShardOf(id, shards)))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	rewritten := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := journal.DecodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("shard line undecodable before corruption: %v", err)
		}
		if rec.Session == id && rec.Kind == journal.KindSnapshot {
			rec.Request = rewrite(rec.Request)
			if line, err = journal.EncodeLine(rec); err != nil {
				t.Fatal(err)
			}
			rewritten++
		}
		out = append(out, line...)
	}
	if err := os.WriteFile(shard, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return rewritten
}

// TestSnapshotInnerDamageFallsBackToFullReplay corrupts the payload of
// every snapshot a session journaled and re-seals each line, so the
// line-level CRC holds and only the payload's fingerprint check can see
// the damage. The chain stays contiguous (snapshots are
// seq-transparent), so recovery must fall back to a full replay, lose
// nothing, and reproduce the uninterrupted run byte for byte.
func TestSnapshotInnerDamageFallsBackToFullReplay(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 12}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	dir := t.TempDir()
	_, c1, j1 := snapshotServer(t, dir, "innerdmg", 2)
	info := c1.create(req)
	stepSession(t, c1, info.ID, target, 5)
	j1.Close() // abandon (kill -9 semantics)
	if breakShardSnapshots(t, dir, j1.Shards(), info.ID) == 0 {
		t.Fatal("no snapshot records found to corrupt")
	}

	s2, c2, _ := snapshotServer(t, dir, "innerdmg", 2)
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 5 {
		t.Fatalf("full-replay fallback lost the session: %+v", report)
	}
	if report.SnapshotRestores != 0 {
		t.Fatalf("recovery claimed a snapshot restore off a corrupt payload: %+v", report)
	}
	if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("fallback result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestCompactedSnapshotDamageFallsBackToFullReplay: compaction keeps
// every op of a live chain next to its latest snapshot, so when that
// snapshot's payload is damaged after compaction under a re-sealed line,
// recovery still rebuilds the session by full replay and it finishes
// byte-identical to an uninterrupted journal-less run.
func TestCompactedSnapshotDamageFallsBackToFullReplay(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 12}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	dir := t.TempDir()
	s1, c1, j1 := snapshotServer(t, dir, "compactdmg", 2)
	info := c1.create(req)
	stepSession(t, c1, info.ID, target, 5)
	stats, err := s1.CompactJournal(journal.CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	compacted := 0
	for _, st := range stats {
		if st.Compacted {
			compacted++
		}
	}
	if compacted != 1 {
		t.Fatalf("forced compaction rewrote %d shards, want the session's one: %+v", compacted, stats)
	}
	j1.Close() // abandon (kill -9 semantics)
	if n := breakShardSnapshots(t, dir, j1.Shards(), info.ID); n != 1 {
		t.Fatalf("compaction kept %d snapshots, want the latest alone", n)
	}

	s2, c2, _ := snapshotServer(t, dir, "compactdmg", 2)
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 5 || len(report.Damaged) != 0 {
		t.Fatalf("compacted session with a damaged snapshot not recovered whole: %+v", report)
	}
	if report.SnapshotRestores != 0 {
		t.Fatalf("recovery claimed a snapshot restore off a corrupt payload: %+v", report)
	}
	if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("fallback result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRecoverParentFormatSnapshotsByFullReplay is the upgrade path: a
// session journaled by a release whose snapshot payloads carried a
// second {"crc","snap"} envelope of their own — modeled by re-enveloping
// every snapshot payload and re-sealing its line — finds no usable
// snapshot, recovers by full replay, loses nothing, and finishes
// byte-identical to an uninterrupted journal-less run.
func TestRecoverParentFormatSnapshotsByFullReplay(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 12}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	dir := t.TempDir()
	_, c1, j1 := snapshotServer(t, dir, "upgrade", 2)
	info := c1.create(req)
	stepSession(t, c1, info.ID, target, 5)
	j1.Close() // abandon (kill -9 semantics)
	enveloped := rewriteShardSnapshots(t, dir, j1.Shards(), info.ID, func(payload []byte) []byte {
		return []byte(fmt.Sprintf(`{"crc":%d,"snap":%s}`, crc32.ChecksumIEEE(payload), payload))
	})
	if enveloped == 0 {
		t.Fatal("no snapshot records found to re-envelope")
	}

	s2, c2, _ := snapshotServer(t, dir, "upgrade", 2)
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 5 || len(report.Damaged) != 0 {
		t.Fatalf("session with parent-format snapshots not recovered whole: %+v", report)
	}
	if report.SnapshotRestores != 0 {
		t.Fatalf("recovery restored off a parent-format snapshot: %+v", report)
	}
	if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("full-replay result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRecoverMergedChainCopies: a session that bounced between replicas
// can sit in one shard twice — first as a drain streamed it (every op,
// only its latest snapshot), then as a reclaim re-journaled it from a
// directory that still holds its older snapshot too. Recovery merges the
// copies into one chain, restores it through the snapshot fast path and
// finishes byte-identical to an uninterrupted journal-less run.
func TestRecoverMergedChainCopies(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 12}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	src := t.TempDir()
	_, c1, j1 := snapshotServer(t, src, "bounce", 2)
	info := c1.create(req)
	stepSession(t, c1, info.ID, target, 5)
	shard := journal.ShardOf(info.ID, j1.Shards())
	lines, _, err := j1.Image(shard)
	if err != nil {
		t.Fatal(err)
	}
	img, err := journal.ReadImage(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	j1.Close() // abandon (kill -9 semantics)
	full, err := journal.ScanDir(src, []int{shard}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Live) != 1 || len(full.Live) != 1 || len(full.Live[0].Records) != len(img.Live[0].Records)+1 {
		t.Fatalf("want the image to drop exactly the older of two snapshots: image %d chains, full %d", len(img.Live), len(full.Live))
	}

	dir := t.TempDir()
	j2, err := journal.Open(dir, journal.WithReplica("bounce"))
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range [][]journal.Record{img.Live[0].Records, full.Live[0].Records} {
		if err := j2.Append(chain...); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()

	s3, c3, _ := snapshotServer(t, dir, "bounce", 2)
	report, err := s3.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 5 || report.SnapshotRestores != 1 || len(report.Damaged) != 0 {
		t.Fatalf("merged copies not restored through the snapshot: %+v", report)
	}
	if got := mustJSON(t, c3.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("merged-copy result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotLineDamageDoesNotBreakChain covers the outer-envelope
// flavor of mid-file damage: a snapshot line whose line-level CRC is
// broken is dropped and reported, but because snapshots consume no seq
// the session chain stays contiguous — the session recovers by full
// replay and other sessions in the shard file are untouched.
func TestSnapshotLineDamageDoesNotBreakChain(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, c1, j1 := snapshotServer(t, dir, "linedmg", 3)
	info := c1.create(SessionRequest{Method: "naive-bo", Seed: 5, Trace: true, EIStopFraction: 1e-9, MaxMeasurements: 12})
	stepSession(t, c1, info.ID, target, 4)
	j1.Close() // abandon (kill -9 semantics)

	shard := filepath.Join(dir, shardName(journal.ShardOf(info.ID, j1.Shards())))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	damaged := false
	for _, line := range lines {
		if len(line) == 0 || damaged {
			continue
		}
		rec, err := journal.DecodeLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Session == info.ID && rec.Kind == journal.KindSnapshot {
			// Flip a byte inside the checksummed record bytes; DecodeLine
			// now fails and the scan drops the line as mid-file damage.
			idx := bytes.Index(line, []byte(`"snapshot"`))
			if idx < 0 {
				t.Fatal("snapshot kind not found on its own line")
			}
			line[idx+1] ^= 0x20
			damaged = true
		}
	}
	if !damaged {
		t.Fatal("no snapshot line found to damage")
	}
	if err := os.WriteFile(shard, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, c2, _ := snapshotServer(t, dir, "linedmg", 3)
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 4 {
		t.Fatalf("session with a damaged snapshot line did not recover: %+v", report)
	}
	if len(report.Damaged) == 0 {
		t.Fatal("mid-file damage went unreported")
	}
	if res := c2.run(info.ID, target); res.Result == nil {
		t.Fatal("recovered session returned no result")
	}
}
