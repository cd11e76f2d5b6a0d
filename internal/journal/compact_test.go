package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// snapshotFor builds a valid snapshot record over a chain prefix: the
// create record's fingerprint and watermark = next seq, exactly as the
// serve layer captures.
func snapshotFor(t testing.TB, chain []Record) Record {
	t.Helper()
	snap := Snapshot{
		Fingerprint: Fingerprint(chain[0].Request),
		Watermark:   len(chain),
	}
	payload, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return Record{Session: chain[0].Session, Seq: snap.Watermark, Kind: KindSnapshot, Request: payload}
}

// TestCompactDropsEndedIntoTombstoneIndex: compaction removes an ended
// chain but leaves its 410 behind in the shard's tombstone index, and
// repeated compactions merge indexes instead of forgetting old ids.
func TestCompactDropsEndedIntoTombstoneIndex(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	live := sessionRecords("s-000001", 2, false)
	ended := sessionRecords("s-000002", 1, true)
	appendAll(t, j, live...)
	appendAll(t, j, ended...)

	stats, err := j.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Compacted || stats.DroppedEnded != 1 || stats.LiveSessions != 1 || stats.Tombstones != 1 {
		t.Fatalf("unexpected stats %+v", stats)
	}
	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || scan.Live[0].ID != "s-000001" {
		t.Fatalf("live session lost: %+v", scan.Live)
	}
	if len(scan.Ended) != 0 || len(scan.Tombstones) != 1 || scan.Tombstones[0] != "s-000002" {
		t.Fatalf("ended session not tombstoned: ended %v, tombstones %v", scan.Ended, scan.Tombstones)
	}

	// End the survivor and compact again: the new tombstone joins the
	// old one — the index merges, it does not reset.
	appendAll(t, j, Record{Session: "s-000001", Seq: 5, Kind: KindEnd, Reason: "done"})
	if _, err := j.Compact(0, CompactOptions{Force: true}); err != nil {
		t.Fatal(err)
	}
	scan, err = j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Tombstones) != 2 {
		t.Fatalf("tombstone indexes did not merge: %v", scan.Tombstones)
	}
}

// TestCompactThresholds: without Force, a shard below the size floor or
// the dead ratio is scanned but not rewritten, and the stats say why.
func TestCompactThresholds(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	appendAll(t, j, sessionRecords("s-000001", 2, false)...)

	stats, err := j.Compact(0, CompactOptions{MinBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted || stats.SkipReason != "below size floor" {
		t.Fatalf("size floor not honored: %+v", stats)
	}
	if stats.BytesAfter != stats.BytesBefore {
		t.Fatalf("skipped compaction reported a shrink: %+v", stats)
	}

	// All-live shard: nothing to drop, so any dead-ratio floor skips it.
	stats, err = j.Compact(0, CompactOptions{MinDeadRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted || !strings.Contains(stats.SkipReason, "dead ratio") {
		t.Fatalf("dead ratio not honored: %+v", stats)
	}

	// An empty shard is never rewritten, even under Force.
	j2 := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	stats, err = j2.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted || stats.SkipReason != "empty" {
		t.Fatalf("empty shard rewritten: %+v", stats)
	}
}

// TestCompactKeepsOpsAndLatestSnapshot: compaction keeps every op of a
// live chain and only its latest usable snapshot, in place at its
// watermark; an older snapshot is dropped.
func TestCompactKeepsOpsAndLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	chain := sessionRecords("s-000001", 2, false) // create + 2x(suggest, observe), seqs 0..4
	older := snapshotFor(t, chain[:3])            // watermark 3
	latest := snapshotFor(t, chain)               // watermark 5
	appendAll(t, j, chain[:3]...)
	appendAll(t, j, older)
	appendAll(t, j, chain[3:]...)
	appendAll(t, j, latest)
	suffix := []Record{
		{Session: "s-000001", Seq: 5, Kind: KindSuggest, Index: 7, Step: 2},
		{Session: "s-000001", Seq: 6, Kind: KindObserve, Index: 7, TimeSec: 3, CostUSD: 0.2},
	}
	appendAll(t, j, suffix...)

	stats, err := j.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Compacted || stats.LiveSessions != 1 || stats.BytesAfter >= stats.BytesBefore {
		t.Fatalf("older snapshot not dropped: %+v", stats)
	}

	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Damage) != 0 {
		t.Fatalf("compacted shard scans dirty: %v", scan.Damage)
	}
	if len(scan.Live) != 1 {
		t.Fatalf("live session lost: %+v", scan.Live)
	}
	want := append(append(append([]Record(nil), chain...), latest), suffix...)
	if got := scan.Live[0].Records; !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted chain:\n got %+v\nwant every op and the latest snapshot %+v", got, want)
	}
}

// TestImageKeepsSnapshotlessChainWhole pins the compacted form a drain
// streams, read back the way the successor reads it: a live chain
// without a usable snapshot comes back whole, and the ended and damaged
// chains come back as sorted tombstones.
func TestImageKeepsSnapshotlessChainWhole(t *testing.T) {
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	live := sessionRecords("s-000003", 1, false)
	appendAll(t, j, live...)
	appendAll(t, j, sessionRecords("s-000002", 0, true)...)
	appendAll(t, j, Record{Session: "s-000001", Seq: 1, Kind: KindSuggest}) // no create record
	lines, damage, err := j.Image(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(damage) != 1 {
		t.Fatalf("damage %v, want the one broken chain", damage)
	}
	img, err := ReadImage(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Damage) != 0 || img.TruncatedTails != 0 {
		t.Fatalf("the image reads back damaged: %v, %d torn tails", img.Damage, img.TruncatedTails)
	}
	if len(img.Live) != 1 || !reflect.DeepEqual(img.Live[0].Records, live) {
		t.Fatalf("snapshot-less chain did not come back whole: %+v", img.Live)
	}
	if want := []string{"s-000001", "s-000002"}; !reflect.DeepEqual(img.Tombstones, want) {
		t.Fatalf("tombstones %v, want %v", img.Tombstones, want)
	}
}

// TestTombstoneOutranksStaleLiveChain: a session drained away, ended on
// the successor and drained back leaves its old live chain in the shard
// beside a later tombstone_index naming it. The scan reports the session
// ended, never live, and compaction drops the chain and keeps the
// tombstone.
func TestTombstoneOutranksStaleLiveChain(t *testing.T) {
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	appendAll(t, j, sessionRecords("s-000001", 2, false)...)
	appendAll(t, j, sessionRecords("s-000002", 1, false)...)
	if err := j.AppendShard(0, Record{Kind: KindTombstoneIndex, Tombstones: []string{"s-000001"}}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		scan, err := j.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(scan.Live) != 1 || scan.Live[0].ID != "s-000002" || len(scan.Damage) != 0 {
			t.Fatalf("%s: live %+v, damage %v; want s-000002 alone, clean", when, scan.Live, scan.Damage)
		}
		if !reflect.DeepEqual(scan.Tombstones, []string{"s-000001"}) {
			t.Fatalf("%s: tombstones %v, want [s-000001]", when, scan.Tombstones)
		}
		if len(scan.Ended) != 0 {
			t.Fatalf("%s: ended %v, want the tombstoned chain reported under tombstones alone", when, scan.Ended)
		}
	}
	check("before compaction")
	stats, err := j.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedEnded != 1 || stats.LiveSessions != 1 || stats.Tombstones != 1 {
		t.Fatalf("compaction kept the stale chain: %+v", stats)
	}
	check("after compaction")
	data, err := os.ReadFile(j.shardPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"sid":"s-000001"`)) {
		t.Fatalf("compacted shard still holds the tombstoned chain:\n%s", data)
	}
}

// TestCompactKeepsChainWithBadSnapshot: an unusable snapshot — its
// fingerprint is not the create record's — is dead weight on an intact
// chain: compaction drops the snapshot record but must keep the full op
// history.
func TestCompactKeepsChainWithBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	chain := sessionRecords("s-000001", 2, false)
	appendAll(t, j, chain...)
	snap := snapshotFor(t, chain)
	// Break the fingerprint; the line CRC is computed over the broken bytes.
	snap.Request = json.RawMessage(strings.Replace(string(snap.Request), `"fp":"`, `"fp":"x`, 1))
	appendAll(t, j, snap)

	stats, err := j.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LiveSessions != 1 {
		t.Fatalf("chain with a bad snapshot mishandled: %+v", stats)
	}
	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || !reflect.DeepEqual(scan.Live[0].Records, chain) {
		t.Fatalf("want the op history without the bad snapshot, got %+v", scan.Live)
	}
}

// TestCompactedChainSurvivesSnapshotDamage: compaction keeps every op,
// so a kept snapshot whose payload is later damaged under a re-sealed,
// valid line CRC is only an unusable snapshot — the chain still scans
// live with all its ops, and recovery can replay it in full.
func TestCompactedChainSurvivesSnapshotDamage(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	chain := sessionRecords("s-000001", 2, false)
	appendAll(t, j, chain...)
	appendAll(t, j, snapshotFor(t, chain))
	suffix := Record{Session: "s-000001", Seq: 5, Kind: KindSuggest, Index: 7, Step: 2}
	appendAll(t, j, suffix)
	if _, err := j.Compact(0, CompactOptions{Force: true}); err != nil {
		t.Fatal(err)
	}

	// Break the kept snapshot's fingerprint and re-seal its line.
	data, err := os.ReadFile(j.shardPath(0))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	damaged := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == KindSnapshot {
			rec.Request = json.RawMessage(strings.Replace(string(rec.Request), `"fp":"`, `"fp":"x`, 1))
			if line, err = EncodeLine(rec); err != nil {
				t.Fatal(err)
			}
			damaged++
		}
		out = append(out, line...)
	}
	if damaged != 1 {
		t.Fatalf("compaction kept %d snapshots, want 1", damaged)
	}
	if err := os.WriteFile(j.shardPath(0), out, 0o644); err != nil {
		t.Fatal(err)
	}

	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Damage) != 0 || len(scan.Live) != 1 {
		t.Fatalf("compacted chain with a damaged snapshot: live %+v, damage %v", scan.Live, scan.Damage)
	}
	var ops []Record
	for _, r := range scan.Live[0].Records {
		if r.Kind != KindSnapshot {
			ops = append(ops, r)
		}
	}
	if want := append(append([]Record(nil), chain...), suffix); !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops after snapshot damage:\n got %+v\nwant %+v", ops, want)
	}
	if snap, _ := LatestSnapshot(scan.Live[0].Records); snap != nil {
		t.Fatalf("damaged snapshot still usable: %+v", snap)
	}
}

// TestCompactRejectsUnownedShard: compaction refuses shards this
// replica holds no lease on.
func TestCompactRejectsUnownedShard(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(2), WithClaimLimit(1))
	unowned := 1 - j.Owned()[0]
	if _, err := j.Compact(unowned, CompactOptions{Force: true}); err == nil {
		t.Fatal("compacting an unowned shard succeeded")
	}
}

// TestReclaimTakesOverDeadPeerShards: a survivor's Reclaim claims the
// shards of a closed (dead) peer and leaves its own claims alone.
func TestReclaimTakesOverDeadPeerShards(t *testing.T) {
	dir := t.TempDir()
	a := openAll(t, dir, WithReplica("a"), WithShards(4), WithClaimLimit(2))
	b, err := Open(dir, WithReplica("b"), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if len(a.Owned()) != 2 || len(b.Owned()) != 2 {
		t.Fatalf("partition skew: a %v, b %v", a.Owned(), b.Owned())
	}

	// A live peer's shards are not claimable.
	claimed, err := a.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed) != 0 {
		t.Fatalf("reclaimed a live peer's shards: %v", claimed)
	}

	// Closing b stands in for the peer dying: the kernel drops a dead
	// process's lease locks just as Close does, and its shards become
	// claimable.
	dead := b.Owned()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	claimed, err = a.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed) != len(dead) {
		t.Fatalf("claimed %v, want the dead peer's %v", claimed, dead)
	}
	if len(a.Owned()) != 4 {
		t.Fatalf("survivor does not own everything: %v", a.Owned())
	}
}
