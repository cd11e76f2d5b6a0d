package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	arrow "repro"
	"repro/internal/journal"
)

// snapshotServer is journaledServer with session checkpointing on: every
// interval accepted observations the server journals a CRC'd snapshot.
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

// TestSnapshotInnerDamageFallsBackToFullReplay corrupts the payload of
// every snapshot a session journaled — under an intact line-level CRC,
// the damage only the snapshot's own checksum can see. The chain stays
// contiguous (snapshots are seq-transparent), so recovery must fall
// back to a full replay, lose nothing, and reproduce the uninterrupted
// run byte for byte.
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

	// Rewrite the shard with every snapshot payload subtly broken: flip
	// one fingerprint character inside the inner envelope without
	// updating its CRC, then re-seal the line so the outer CRC is valid.
	shard := filepath.Join(dir, shardName(journal.ShardOf(info.ID, j1.Shards())))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	corrupted := 0
	var out [][]byte
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		rec, err := journal.DecodeLine(line)
		if err != nil {
			t.Fatalf("shard line undecodable before corruption: %v", err)
		}
		if rec.Session == info.ID && rec.Kind == journal.KindSnapshot {
			idx := bytes.Index(rec.Request, []byte(`"fp":"`))
			if idx < 0 {
				t.Fatal("snapshot payload has no fingerprint field")
			}
			pos := idx + len(`"fp":"`)
			if rec.Request[pos] == 'f' {
				rec.Request[pos] = '0'
			} else {
				rec.Request[pos] = 'f'
			}
			resealed, err := journal.EncodeLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, bytes.TrimSuffix(resealed, []byte("\n")))
			corrupted++
			continue
		}
		out = append(out, line)
	}
	if corrupted == 0 {
		t.Fatal("no snapshot records found to corrupt")
	}
	if err := os.WriteFile(shard, append(bytes.Join(out, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
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
