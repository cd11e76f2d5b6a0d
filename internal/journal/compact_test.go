package journal

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// snapshotFor builds a valid snapshot record over a chain prefix: the
// create record's fingerprint, watermark = next seq, and the ops below
// it with the session id stripped, exactly as the serve layer captures.
func snapshotFor(t *testing.T, chain []Record) Record {
	t.Helper()
	snap := Snapshot{
		Fingerprint: Fingerprint(chain[0].Request),
		Watermark:   len(chain),
	}
	for _, r := range chain[1:] {
		op := r
		op.Session = ""
		if op.Kind == KindObserve {
			snap.Observations++
		}
		snap.Ops = append(snap.Ops, op)
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

// TestCompactTruncatesAtSnapshot: a live chain with a valid snapshot is
// cut down to create + snapshot + post-watermark suffix, the rescan
// bridges the seq gap through the snapshot, and the dropped history is
// recoverable from the snapshot's carried ops.
func TestCompactTruncatesAtSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	chain := sessionRecords("s-000001", 2, false) // create + 2x(suggest, observe), seqs 0..4
	appendAll(t, j, chain...)
	snap := snapshotFor(t, chain)
	appendAll(t, j, snap)
	suffix := []Record{
		{Session: "s-000001", Seq: 5, Kind: KindSuggest, Index: 7, Step: 2},
		{Session: "s-000001", Seq: 6, Kind: KindObserve, Index: 7, TimeSec: 3, CostUSD: 0.2},
	}
	appendAll(t, j, suffix...)

	stats, err := j.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Compacted || stats.TruncatedChains != 1 {
		t.Fatalf("snapshot truncation did not happen: %+v", stats)
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
	recs := scan.Live[0].Records
	if len(recs) != 4 {
		t.Fatalf("want create+snapshot+2 suffix records, got %d: %+v", len(recs), recs)
	}
	if recs[0].Kind != KindCreate || recs[1].Kind != KindSnapshot || recs[2].Seq != 5 || recs[3].Seq != 6 {
		t.Fatalf("truncated chain malformed: %+v", recs)
	}
	got, err := DecodeSnapshot(recs[1].Request)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 4 || got.Ops[0].Seq != 1 {
		t.Fatalf("snapshot lost the carried history: %+v", got.Ops)
	}
}

// TestImageKeepsSnapshotlessChainWhole pins the compacted form a drain
// streams: a live chain without a usable snapshot comes back whole, and
// the ended and damaged chains come back as sorted tombstones.
func TestImageKeepsSnapshotlessChainWhole(t *testing.T) {
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	live := sessionRecords("s-000003", 1, false)
	appendAll(t, j, live...)
	appendAll(t, j, sessionRecords("s-000002", 0, true)...)
	appendAll(t, j, Record{Session: "s-000001", Seq: 1, Kind: KindSuggest}) // no create record
	img, err := j.Image(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Live) != 1 || !reflect.DeepEqual(img.Live[0], live) {
		t.Fatalf("snapshot-less chain did not come back whole: %+v", img.Live)
	}
	if want := []string{"s-000001", "s-000002"}; !reflect.DeepEqual(img.Tombstones, want) {
		t.Fatalf("tombstones %v, want %v", img.Tombstones, want)
	}
	if len(img.Damage) != 1 {
		t.Fatalf("damage %v, want the one broken chain", img.Damage)
	}
}

// TestCompactKeepsChainWithBadSnapshot: a snapshot whose payload fails
// its own CRC is dead weight on an intact chain — compaction drops the
// snapshot record but must keep the full op history, because nothing
// else carries it.
func TestCompactKeepsChainWithBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	chain := sessionRecords("s-000001", 2, false)
	appendAll(t, j, chain...)
	snap := snapshotFor(t, chain)
	// Break the inner payload under a valid line CRC.
	snap.Request = json.RawMessage(strings.Replace(string(snap.Request), `"crc":`, `"crc":1`, 1))
	appendAll(t, j, snap)

	stats, err := j.Compact(0, CompactOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedChains != 0 || stats.LiveSessions != 1 {
		t.Fatalf("chain with a bad snapshot mishandled: %+v", stats)
	}
	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || len(scan.Live[0].Records) != len(chain)+1 {
		t.Fatalf("op history lost under a bad snapshot: %+v", scan.Live)
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
