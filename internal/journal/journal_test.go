package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// openAll opens a journal owning every shard, failing the test on error.
func openAll(t *testing.T, dir string, opts ...Option) *Journal {
	t.Helper()
	j, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// appendAll writes records, failing the test on error.
func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

// sessionRecords builds a canonical create/suggest/observe chain.
func sessionRecords(id string, observes int, ended bool) []Record {
	recs := []Record{{Session: id, Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method":"random","seed":1}`)}}
	seq := 1
	for i := 0; i < observes; i++ {
		recs = append(recs,
			Record{Session: id, Seq: seq, Kind: KindSuggest, Index: i, Step: i},
			Record{Session: id, Seq: seq + 1, Kind: KindObserve, Index: i, TimeSec: float64(i) + 0.5, CostUSD: 0.1},
		)
		seq += 2
	}
	if ended {
		recs = append(recs, Record{Session: id, Seq: seq, Kind: KindEnd, Reason: "done"})
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(4))

	live := sessionRecords("s-000001", 2, false)
	ended := sessionRecords("s-000002", 1, true)
	// Interleave appends across sessions, as a live server would.
	appendAll(t, j, live[0], ended[0], live[1], ended[1], live[2], ended[2], live[3], ended[3], live[4])

	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || scan.Live[0].ID != "s-000001" {
		t.Fatalf("Live = %+v, want exactly s-000001", scan.Live)
	}
	if len(scan.Live[0].Records) != len(live) {
		t.Fatalf("live session has %d records, want %d", len(scan.Live[0].Records), len(live))
	}
	for i, r := range scan.Live[0].Records {
		if r.Seq != i || r.Session != "s-000001" {
			t.Fatalf("record %d = %+v out of order", i, r)
		}
	}
	if got := scan.Live[0].Records[2]; got.Kind != KindObserve || got.TimeSec != 0.5 || got.CostUSD != 0.1 {
		t.Errorf("observe record did not round-trip: %+v", got)
	}
	if len(scan.Ended) != 1 || scan.Ended[0] != "s-000002" {
		t.Fatalf("Ended = %v, want [s-000002]", scan.Ended)
	}
	if len(scan.Damage) != 0 || scan.TruncatedTails != 0 {
		t.Fatalf("unexpected damage: %+v", scan)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	appendAll(t, j, sessionRecords("s-000001", 2, false)...)
	j.Close()

	// Tear the tail: a half-written line with no newline, as kill -9
	// mid-append leaves it.
	path := filepath.Join(dir, "journal-00.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":123,"rec":{"sid":"s-000001","seq":5,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(path)

	j2 := openAll(t, dir, WithReplica("r1"))
	scan, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if scan.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", scan.TruncatedTails)
	}
	if len(scan.Live) != 1 || len(scan.Live[0].Records) != 5 {
		t.Fatalf("Live = %+v, want the 5 intact records", scan.Live)
	}
	after, _ := os.ReadFile(path)
	if len(after) >= len(before) {
		t.Fatalf("torn tail not truncated: %d bytes before, %d after", len(before), len(after))
	}
	// A rescan of the truncated file is clean.
	scan2, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if scan2.TruncatedTails != 0 || len(scan2.Live) != 1 {
		t.Fatalf("rescan after truncation = %+v, want clean", scan2)
	}
}

func TestJournalTornNewlineRepaired(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	appendAll(t, j, sessionRecords("s-000001", 1, false)...)
	j.Close()

	// Chop only the final newline: the record itself survived the crash.
	path := filepath.Join(dir, "journal-00.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openAll(t, dir, WithReplica("r1"))
	scan, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || len(scan.Live[0].Records) != 3 {
		t.Fatalf("Live = %+v, want all 3 records", scan.Live)
	}
	// The shard must be appendable again without gluing lines together.
	if err := j2.Append(Record{Session: "s-000001", Seq: 3, Kind: KindSuggest, Index: 1, Step: 1}); err != nil {
		t.Fatal(err)
	}
	scan2, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan2.Live) != 1 || len(scan2.Live[0].Records) != 4 || len(scan2.Damage) != 0 {
		t.Fatalf("post-repair scan = %+v, want 4 clean records", scan2)
	}
}

func TestJournalCorruptMidLineDropsOnlyItsSession(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	a := sessionRecords("sess-a", 2, false)
	b := sessionRecords("sess-b", 2, false)
	appendAll(t, j, a[0], b[0], a[1], b[1], a[2], b[2], a[3], b[3], a[4], b[4])
	j.Close()

	// Flip bytes inside one of sess-a's mid-file records so its CRC
	// fails, then append one more valid record so the damage is not the
	// tail.
	path := filepath.Join(dir, "journal-00.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	lines[4] = strings.Replace(lines[4], `"sid":"sess-a"`, `"sid":"sess-X"`, 1) // payload no longer matches crc
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openAll(t, dir, WithReplica("r1"))
	scan, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// sess-a lost a mid-chain record: reported damaged, not replayed.
	// sess-b is untouched and fully recovered.
	if len(scan.Live) != 1 || scan.Live[0].ID != "sess-b" || len(scan.Live[0].Records) != 5 {
		t.Fatalf("Live = %+v, want sess-b complete", scan.Live)
	}
	if len(scan.Damage) < 2 {
		t.Fatalf("Damage = %v, want the corrupt line and the broken sess-a chain reported", scan.Damage)
	}
	for _, d := range scan.Damage {
		t.Log("damage:", d)
	}
}

func TestJournalLeasePartition(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, WithReplica("alpha"), WithShards(8), WithClaimLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, WithReplica("beta"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if got := len(a.Owned()); got != 4 {
		t.Fatalf("alpha owns %d shards, want 4 (claim limit)", got)
	}
	if got := len(b.Owned()); got != 4 {
		t.Fatalf("beta owns %d shards, want the remaining 4", got)
	}
	owned := make(map[int]string)
	for _, s := range a.Owned() {
		owned[s] = "alpha"
	}
	for _, s := range b.Owned() {
		if who, dup := owned[s]; dup {
			t.Fatalf("shard %d claimed by both %s and beta", s, who)
		}
		owned[s] = "beta"
	}
	if len(owned) != 8 {
		t.Fatalf("%d shards claimed in total, want 8", len(owned))
	}

	// Every session id is servable by exactly one replica.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("s-%06d", i)
		if a.Owns(id) == b.Owns(id) {
			t.Fatalf("session %s owned by %v/%v, want exactly one replica", id, a.Owns(id), b.Owns(id))
		}
	}

	// Appends are fenced to the owner.
	id := fmt.Sprintf("s-%06d", 1)
	owner, other := a, b
	if b.Owns(id) {
		owner, other = b, a
	}
	if err := owner.Append(Record{Session: id, Seq: 0, Kind: KindCreate}); err != nil {
		t.Fatalf("owner append: %v", err)
	}
	if err := other.Append(Record{Session: id, Seq: 1, Kind: KindSuggest}); err == nil {
		t.Fatal("non-owner append succeeded, want ErrNotOwned")
	}
}

// TestJournalLeaseTakeoverAfterCrash: a holder process killed with
// SIGKILL loses its shards at once, to a replica of any name. While it
// lives, no other process takes them, not even one under its own name.
func TestJournalLeaseTakeoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	holder := startLeaseHolder(t, dir)
	for _, name := range []string{"alpha", "beta"} {
		j := openAll(t, dir, WithReplica(name))
		if got := j.Owned(); len(got) != 0 {
			t.Fatalf("%s owns %v while the holder process lives, want nothing", name, got)
		}
		j.Close()
	}

	beta := openAll(t, dir, WithReplica("beta"))
	holder.Process.Kill() // kill -9: the kernel drops the holder's locks
	holder.Wait()
	claimed, err := beta.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed) != 2 || len(beta.Owned()) != 2 {
		t.Fatalf("beta reclaimed %v, owns %v after the crash; want both shards", claimed, beta.Owned())
	}
	for shard := 0; shard < 2; shard++ {
		if _, err := os.Stat(leaseFile(dir, shard)); err != nil {
			t.Fatalf("lease file of shard %d: %v", shard, err)
		}
	}
}

func TestJournalMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(4))
	j.Close()
	// A replica asking for a different count gets the directory's.
	j2 := openAll(t, dir, WithReplica("r1"), WithShards(16))
	if j2.Shards() != 4 {
		t.Fatalf("Shards = %d, want the meta-pinned 4", j2.Shards())
	}
	// A damaged meta file refuses loudly rather than guessing.
	j2.Close()
	if err := os.WriteFile(filepath.Join(dir, "journal.meta"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, WithReplica("r1")); err == nil {
		t.Fatal("Open with damaged meta succeeded, want error")
	}
}

// TestJournalClosedAppendsRejected: a closed journal owns nothing, and
// claims nothing either: appends are refused, also after a Reclaim,
// which takes no shard, and another handle can claim every shard.
func TestJournalClosedAppendsRejected(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"))
	j.Close()
	if err := j.Append(Record{Session: "s-000001", Seq: 0, Kind: KindCreate}); err == nil {
		t.Fatal("append after Close succeeded, want ErrNotOwned")
	}
	claimed, err := j.Reclaim()
	if err != nil || len(claimed) != 0 || len(j.Owned()) != 0 {
		t.Fatalf("Reclaim after Close = %v, %v, owning %v; want nothing", claimed, err, j.Owned())
	}
	if err := j.Append(Record{Session: "s-000001", Seq: 0, Kind: KindCreate}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("append after Close and Reclaim returned %v, want ErrNotOwned", err)
	}
	if other := openAll(t, dir, WithReplica("r2")); len(other.Owned()) != DefaultShards {
		t.Fatalf("another handle owns %v after the close, want all %d shards", other.Owned(), DefaultShards)
	}
}

func TestValidateChainRejectsGapsAndStrays(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
	}{
		{"gap", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 2, Kind: KindObserve},
		}},
		{"no create", []Record{{Session: "x", Seq: 0, Kind: KindSuggest}}},
		{"second create", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 1, Kind: KindCreate},
		}},
		{"record after end", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 1, Kind: KindEnd},
			{Session: "x", Seq: 2, Kind: KindSuggest},
		}},
		{"empty", nil},
		// A snapshot carries no ops, so it never bridges a gap below its
		// watermark — the shape of a chain compacted past its snapshot by
		// an older release.
		{"snapshot past a gap", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 3, Kind: KindSnapshot},
			{Session: "x", Seq: 3, Kind: KindSuggest},
		}},
		// A snapshot past the last op vouches for ops the chain lost.
		{"snapshot past the end", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 1, Kind: KindSuggest},
			{Session: "x", Seq: 3, Kind: KindSnapshot},
		}},
		{"snapshot first", []Record{{Session: "x", Seq: 0, Kind: KindSnapshot}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, problem := ValidateChain("x", tc.recs); problem == "" {
				t.Fatalf("chain %+v validated, want a damage report", tc.recs)
			}
		})
	}
}

// TestValidateChainDedupesIdenticalRecords: a chain that bounced back
// between directories holds byte-identical copies of its records, and
// validates live with one copy of each kept, also when only the later
// copy holds a snapshot; a seq held by two records with different bytes
// is a broken chain.
func TestValidateChainDedupesIdenticalRecords(t *testing.T) {
	chain := sessionRecords("x", 2, false)
	snap := Record{Session: "x", Seq: 3, Kind: KindSnapshot, Request: json.RawMessage(`{"crc":1}`)}
	want := append(append(append([]Record(nil), chain[:3]...), snap), chain[3:]...)
	// The whole chain twice, each record next to its copy.
	var twice []Record
	for _, r := range want {
		twice = append(twice, r, r)
	}
	log, ended, problem := ValidateChain("x", twice)
	if problem != "" || ended {
		t.Fatalf("duplicated chain: ended %v, problem %q", ended, problem)
	}
	if !reflect.DeepEqual(log.Records, want) {
		t.Fatalf("dedupe kept\n%+v\nwant one copy of each record\n%+v", log.Records, want)
	}
	if log, _, problem := ValidateChain("x", append([]Record(nil), want...)); problem != "" || !reflect.DeepEqual(log.Records, want) {
		t.Fatalf("chain without duplicates changed: %+v, problem %q", log.Records, problem)
	}
	// In file order: a drain streamed the chain without this snapshot
	// (compaction keeps only the latest), then a reclaim re-journaled it
	// from a directory that still held the snapshot.
	merged := append(append([]Record(nil), chain...), want...)
	if log, _, problem := ValidateChain("x", merged); problem != "" || !reflect.DeepEqual(log.Records, want) {
		t.Fatalf("copies around a snapshot merged to %+v, problem %q; want %+v", log.Records, problem, want)
	}

	diverged := append([]Record(nil), want...)
	other := chain[2]
	other.TimeSec++
	diverged = append(diverged[:3], append([]Record{other}, diverged[3:]...)...)
	if _, _, problem := ValidateChain("x", diverged); problem == "" {
		t.Fatalf("same-seq records with different bytes validated: %+v", diverged)
	}
}

func TestEncodeDecodeLine(t *testing.T) {
	rec := Record{
		Session: "s-000042", Seq: 7, Kind: KindObserve, Index: 3,
		TimeSec: 123.25, CostUSD: 0.75, Metrics: []float64{1, 2.5, -3},
	}
	line, err := EncodeLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLine(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != rec.Session || got.Seq != rec.Seq || got.Kind != rec.Kind ||
		got.TimeSec != rec.TimeSec || len(got.Metrics) != 3 || got.Metrics[2] != -3 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Any single flipped payload byte must fail the CRC.
	for i := range line {
		if line[i] == '{' || line[i] == '}' || line[i] == '"' || line[i] == '\n' {
			continue
		}
		mut := append([]byte(nil), line...)
		mut[i] ^= 0x01
		if _, err := DecodeLine(mut[:len(mut)-1]); err == nil {
			// A flip inside the crc field itself can only produce a
			// mismatch too, so any acceptance is a bug.
			t.Fatalf("flipped byte %d accepted: %q", i, mut)
		}
	}
}

// TestDropShardFencesInFlightAppend: DropShard is a hard fence. An
// append already waiting for the shard's file mutex when the drop lands
// must be refused, not written after the drop returns: a drain reads
// the shard right after dropping it, so a record landing later would be
// acknowledged yet missing from the hand-off.
func TestDropShardFencesInFlightAppend(t *testing.T) {
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	sf := &j.files[0]
	sf.Lock()
	appended := make(chan error, 1)
	go func() { appended <- j.Append(sessionRecords("s-000001", 0, false)[0]) }()
	time.Sleep(20 * time.Millisecond)
	go j.DropShard(0)
	for len(j.Owned()) != 0 {
		time.Sleep(time.Millisecond)
	}
	sf.Unlock()
	if err := <-appended; !errors.Is(err, ErrNotOwned) {
		t.Fatalf("append racing the drop returned %v, want ErrNotOwned", err)
	}
	if info, err := os.Stat(j.shardPath(0)); err == nil && info.Size() != 0 {
		t.Fatalf("shard holds %d bytes after the drop, want none", info.Size())
	}
}

// gatedLeases is a lease manager whose renewals wait for the test's
// verdict: renewed (true) or lost (false).
type gatedLeases struct {
	entered chan struct{}
	verdict chan bool
}

func (m *gatedLeases) Acquire(shard int) (Lease, bool, error) {
	return Lease{Shard: shard, Epoch: 1}, true, nil
}

func (m *gatedLeases) Renew(l Lease) (Lease, bool, error) {
	m.entered <- struct{}{}
	return l, <-m.verdict, nil
}

func (m *gatedLeases) Release(Lease) error { return nil }

// TestRenewLeavesDroppedShardDropped: a heartbeat renewal in flight when
// a drain drops the shard must not revive the grant — that would reopen
// the shard to appends mid-hand-off. Only Reinstate puts a set-aside
// grant back, and not when the manager reports it lost.
func TestRenewLeavesDroppedShardDropped(t *testing.T) {
	m := &gatedLeases{entered: make(chan struct{}), verdict: make(chan bool)}
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1), WithLeaseManager(m))
	answer := func(renewed bool) {
		<-m.entered
		m.verdict <- renewed
	}

	renewed := make(chan []int, 1)
	go func() {
		lost, err := j.RenewLeases()
		if err != nil {
			t.Error(err)
		}
		renewed <- lost
	}()
	<-m.entered
	l, held := j.DropShard(0)
	if !held {
		t.Fatal("DropShard found no grant on an owned shard")
	}
	m.verdict <- true
	if lost := <-renewed; len(lost) != 0 {
		t.Fatalf("renewal reported the dropped shard lost: %v", lost)
	}
	if got := j.Owned(); len(got) != 0 {
		t.Fatalf("renewal revived the dropped shard: owned %v", got)
	}

	go answer(true)
	if held, err := j.Reinstate(l); !held || err != nil {
		t.Fatalf("Reinstate = %v, %v; want the grant back", held, err)
	}
	if got := j.Owned(); len(got) != 1 {
		t.Fatalf("reinstated grant missing: owned %v", got)
	}
	l, _ = j.DropShard(0)
	go answer(false)
	if held, err := j.Reinstate(l); held || err != nil {
		t.Fatalf("Reinstate of a lost grant = %v, %v; want it left dropped", held, err)
	}
	if got := j.Owned(); len(got) != 0 {
		t.Fatalf("lost grant reinstated: owned %v", got)
	}
}

// releaseCounter grants every shard and records each Release.
type releaseCounter struct {
	mu       sync.Mutex
	released []int
}

func (m *releaseCounter) Acquire(shard int) (Lease, bool, error) {
	return Lease{Shard: shard, Epoch: 1}, true, nil
}

func (m *releaseCounter) Renew(l Lease) (Lease, bool, error) { return l, true, nil }

func (m *releaseCounter) Release(l Lease) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.released = append(m.released, l.Shard)
	return nil
}

// TestCloseLeavesSetAsideGrantToInjectedManager: under an injected
// manager Close gives back only the grants still owned. A grant DropShard
// set aside may already belong to the drain's successor, so releasing it
// would yank it from them.
func TestCloseLeavesSetAsideGrantToInjectedManager(t *testing.T) {
	m := &releaseCounter{}
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(2), WithLeaseManager(m))
	j.DropShard(0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if fmt.Sprint(m.released) != "[1]" {
		t.Fatalf("Close released shards %v, want only the owned shard 1", m.released)
	}
}

// TestEncodeLineMatchesEnvelopeMarshal pins the envelope writer to the
// bytes json.Marshal of the envelope struct produces, over every record
// kind: a create request with HTML-sensitive characters and insignificant
// whitespace, and a snapshot payload, included. Existing shards and their
// checksums stay byte-compatible.
func TestEncodeLineMatchesEnvelopeMarshal(t *testing.T) {
	snap, err := EncodeSnapshot(Snapshot{
		Fingerprint: Fingerprint([]byte(`{"method":"random","seed":1}`)),
		Watermark:   3,
		Script:      json.RawMessage(`{"picks":[0]}`),
		Events:      json.RawMessage(`[{"kind":"suggest","detail":"<a> & <b>"}]`),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Session: "s-000001", Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method": "augmented-bo", "workload": "<als> & <pagerank>", "seed": 1}`)},
		{Session: "s-000001", Seq: 1, Kind: KindSuggest, Index: 4, Step: 2},
		{Session: "s-000001", Seq: 2, Kind: KindSuggestBatch, K: 3, Indices: []int{1, 5, 2}},
		{Session: "s-000001", Seq: 3, Kind: KindObserve, Index: 4, TimeSec: 120.5, CostUSD: 0.42, Metrics: []float64{1, 2.5e-9, -3}},
		{Session: "s-000001", Seq: 4, Kind: KindObserveFailure, Index: 5, Reason: "spot <reclaimed> & lost"},
		{Session: "s-000001", Seq: 5, Kind: KindSnapshot, Request: snap},
		{Session: "s-000001", Seq: 5, Kind: KindAbort, Reason: "aborted"},
		{Session: "s-000002", Seq: 9, Kind: KindEnd, Reason: "done"},
		{Kind: KindTombstoneIndex, Tombstones: []string{"s-000003", "s-000004"}},
	}
	// envelope is the line format's oracle: the struct whose json.Marshal
	// the line writer must reproduce byte for byte.
	type envelope struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(payload), Rec: payload})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := EncodeLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s record:\n got %s\nwant %s", rec.Kind, got, want)
		}
		if bytes.ContainsAny(got, "<>&") {
			t.Errorf("%s record line carries unescaped HTML characters: %s", rec.Kind, got)
		}
	}
}

// TestAppendBatchTornAtEveryOffset: a three-record Append lands as
// three whole lines, and a crash that tears the write at any byte
// leaves a shard from which recovery takes exactly the records whose
// lines were whole before the tear (a line missing only its newline is
// whole and gets the newline back), truncates one torn tail when the
// tear falls inside a line, and reports no damage.
func TestAppendBatchTornAtEveryOffset(t *testing.T) {
	recs := sessionRecords("s-000001", 1, false) // create, suggest, observe
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	if err := j.Append(recs...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(j.shardPath(0))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var starts, ends []int // each line's first byte, and its newline
	for _, r := range recs {
		line, err := EncodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, len(want))
		want = append(want, line...)
		ends = append(ends, len(want)-1)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("batched append wrote\n%s\nwant the three lines\n%s", data, want)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "journal-00.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, torn := 0, 0
		for k := range recs {
			switch {
			case cut >= ends[k]:
				whole++
			case cut > starts[k]:
				torn = 1
			}
		}
		j2, err := Open(dir, WithReplica("r2"), WithShards(1), WithWarnf(func(string, ...any) {}))
		if err != nil {
			t.Fatal(err)
		}
		scan, err := j2.Scan()
		j2.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if len(scan.Live) == 1 {
			got = len(scan.Live[0].Records)
		} else if len(scan.Live) > 1 {
			t.Fatalf("cut %d: %d live sessions, want at most one", cut, len(scan.Live))
		}
		if got != whole || scan.TruncatedTails != torn || len(scan.Damage) != 0 {
			t.Fatalf("cut %d: recovered %d records, %d truncated tails, damage %v; want %d, %d, none",
				cut, got, scan.TruncatedTails, scan.Damage, whole, torn)
		}
		size := 0
		if whole > 0 {
			size = ends[whole-1] + 1
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(size) {
			t.Fatalf("cut %d: repaired shard is %v bytes (%v), want %d", cut, info.Size(), err, size)
		}
	}
}

// expiringLeases grants every shard until a fixed expiry.
type expiringLeases struct{ expiry time.Time }

func (m expiringLeases) Acquire(shard int) (Lease, bool, error) {
	return Lease{Shard: shard, Epoch: 1, Expiry: m.expiry}, true, nil
}

func (m expiringLeases) Renew(l Lease) (Lease, bool, error) { return l, true, nil }

func (m expiringLeases) Release(Lease) error { return nil }

// TestAppendBatchFencedWritesNothing: a batch on a dropped shard or
// under a lapsed grant is refused whole, and the shard gains no bytes.
func TestAppendBatchFencedWritesNothing(t *testing.T) {
	recs := sessionRecords("s-000001", 1, false)
	clock := time.Unix(1700000000, 0)
	for _, tc := range []struct {
		name  string
		opts  []Option
		fence func(j *Journal)
		want  error
	}{
		{"dropped", nil, func(j *Journal) { j.DropShard(0) }, ErrNotOwned},
		{"lapsed", []Option{
			WithLeaseManager(expiringLeases{expiry: clock.Add(time.Second)}),
			WithNow(func() time.Time { return clock }),
		}, func(*Journal) { clock = clock.Add(time.Second) }, ErrLeaseExpired},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := openAll(t, t.TempDir(), append([]Option{WithReplica("r1"), WithShards(1)}, tc.opts...)...)
			appendAll(t, j, recs[0])
			before, err := os.Stat(j.shardPath(0))
			if err != nil {
				t.Fatal(err)
			}
			tc.fence(j)
			if err := j.Append(recs[1:]...); !errors.Is(err, tc.want) {
				t.Fatalf("batch on a %s shard returned %v, want %v", tc.name, err, tc.want)
			}
			if after, err := os.Stat(j.shardPath(0)); err != nil || after.Size() != before.Size() {
				t.Fatalf("shard grew from %d to %d bytes (%v), want no bytes written", before.Size(), after.Size(), err)
			}
		})
	}
}

// TestAppendRejectsMixedSessions: one Append is one session's unit of
// durability, so a call carrying records of two sessions is refused and
// writes nothing, even when both map to the same shard.
func TestAppendRejectsMixedSessions(t *testing.T) {
	j := openAll(t, t.TempDir(), WithReplica("r1"), WithShards(1))
	a := sessionRecords("s-000001", 0, false)[0]
	b := sessionRecords("s-000002", 0, false)[0]
	if err := j.Append(a, b); err == nil {
		t.Fatal("an append carrying two sessions' records was accepted")
	}
	if info, err := os.Stat(j.shardPath(0)); err == nil && info.Size() != 0 {
		t.Fatalf("shard holds %d bytes after the refused append, want none", info.Size())
	}
}
