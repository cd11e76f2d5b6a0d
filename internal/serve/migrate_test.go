package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/journal"
	"repro/internal/registry"
)

// registryFixture is one cluster registry over HTTP for serve tests. A
// generous TTL keeps expiry out of the picture: these tests pin the
// graceful-transfer fencing, not the heartbeat timeout.
func registryFixture(t *testing.T) (*registry.Registry, *httptest.Server) {
	t.Helper()
	reg, err := registry.New(registry.Config{LeaseTTL: time.Minute, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	t.Cleanup(ts.Close)
	return reg, ts
}

// registryServer builds a serve.Server whose journal leases come from
// the registry instead of lease files — dir is this replica's own
// journal directory, not a shared one.
func registryServer(t *testing.T, regURL, name, dir string, snapInterval int) (*Server, *client, *journal.Journal) {
	t.Helper()
	cl := registry.NewClient(regURL, name, "", dir)
	j, err := journal.Open(dir,
		journal.WithReplica(name), journal.WithLeaseManager(cl), journal.WithWarnf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Journal: j, SnapshotInterval: snapInterval, Warnf: t.Logf})
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, newClient(t, hs), j
}

// TestMigrateStreamsLiveSessions is the graceful-migration acceptance
// test: a session started on replica A, drained to replica B over HTTP
// mid-flight, and finished through a B restart must produce a result —
// recommendation AND wall-stripped trace — byte-identical to an
// uninterrupted journal-less run. Deleting A's journal directory before
// B's restart proves the stream alone carried the session: the
// successor never re-reads the drained replica's disk.
func TestMigrateStreamsLiveSessions(t *testing.T) {
	// DeltaThreshold -1 disarms the early-stop rule so the session is
	// guaranteed to survive both handoffs; MaxMeasurements bounds it.
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 8}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	refInfo := ref.create(req)
	want := mustJSON(t, ref.run(refInfo.ID, target))

	_, regURL := registryFixture(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, cA, jA := registryServer(t, regURL.URL, "a", dirA, 2)
	if got := len(jA.Owned()); got != journal.DefaultShards {
		t.Fatalf("first replica claimed %d shards, want all %d", got, journal.DefaultShards)
	}
	sB, cB, jB := registryServer(t, regURL.URL, "b", dirB, 2)
	if got := len(jB.Owned()); got != 0 {
		t.Fatalf("second replica claimed shards %v from a fully-claimed cluster", jB.Owned())
	}

	info := cA.create(req)
	if info.ID != refInfo.ID {
		t.Fatalf("id skew breaks the byte comparison: %s vs %s", info.ID, refInfo.ID)
	}
	if sug := stepSession(t, cA, info.ID, target, 3); sug.Done {
		t.Fatal("session finished before the drain point; pick a longer method")
	}

	report, err := sA.MigrateShards(context.Background(), cB.base)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sessions != 1 || report.Observations != 3 {
		t.Fatalf("migrated %d sessions / %d observations, want 1/3 (report %+v)", report.Sessions, report.Observations, report)
	}
	if len(report.Shards) != journal.DefaultShards {
		t.Fatalf("drained %d shards, want all %d: %v", len(report.Shards), journal.DefaultShards, report.Shards)
	}
	if len(report.Damaged) != 0 {
		t.Fatalf("clean migration reported damage: %v", report.Damaged)
	}

	// The drained replica no longer answers for the session — 421, the
	// same misdirection signal shard partitioning uses — and the
	// successor serves it immediately, no restart in between.
	if st := cA.do("GET", "/v1/sessions/"+info.ID+"/next", nil, nil); st != http.StatusMisdirectedRequest {
		t.Fatalf("drained replica answered %d, want 421", st)
	}
	if sug := stepSession(t, cB, info.ID, target, 1); sug.Done {
		t.Fatalf("session finished on the successor before the restart point: %+v", sug)
	}

	// Kill the drained replica's directory entirely, then restart the
	// successor from its own directory alone. If adoption had leaned on
	// A's disk instead of re-journaling the stream, this recovery (and
	// the byte comparison after it) would fail.
	if err := sB.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dirA); err != nil {
		t.Fatal(err)
	}
	sB2, cB2, jB2 := registryServer(t, regURL.URL, "b", dirB, 2)
	rep, err := sB2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("successor restart recovered %d sessions (damage %v), want 1 clean", rep.Recovered, rep.Damaged)
	}
	if rep.SnapshotRestores != 1 {
		t.Fatalf("successor replayed from the chain head (%d snapshot restores); the streamed snapshot was lost", rep.SnapshotRestores)
	}
	if got := len(jB2.Owned()); got != journal.DefaultShards {
		t.Fatalf("restarted successor owns %d shards, want all %d", got, journal.DefaultShards)
	}

	if got := mustJSON(t, cB2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("migrated result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// postStream POSTs body to base's /v1/migrate as the given media type,
// citing the shard, source replica and epoch in the query as a drain
// does. It returns the status and, on a 200, the successor's verdict.
func postStream(t *testing.T, base, mediaType string, shard int, from string, epoch uint64, body []byte) (int, MigrateResponse) {
	t.Helper()
	q := url.Values{"shard": {strconv.Itoa(shard)}, "from": {from}, "from_epoch": {strconv.FormatUint(epoch, 10)}}
	resp, err := http.Post(base+"/v1/migrate?"+q.Encode(), mediaType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var verdict MigrateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&verdict); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, verdict
}

// shardLines renders records as a migration stream's shard lines.
func shardLines(t *testing.T, recs ...journal.Record) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		line, err := journal.EncodeLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, line...)
	}
	return out
}

// TestMigrateDamagedStreamRefusedWhole drives a real drain through a
// proxy that flips one streamed byte, a fingerprint character of the
// session's snapshot line. A damaged line's kind sits inside its damaged
// bytes, so the successor refuses the whole stream with 400 before the
// fence: the lease stays with the drainer at its epoch, the drainer
// keeps serving the session, and the refused drain reports no damage. A
// clean re-drain then moves the session, and it finishes byte-identical
// to an uninterrupted journal-less run.
func TestMigrateDamagedStreamRefusedWhole(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 8}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	refInfo := ref.create(req)
	want := mustJSON(t, ref.run(refInfo.ID, target))

	_, regURL := registryFixture(t)
	sA, cA, jA := registryServer(t, regURL.URL, "a", t.TempDir(), 2)
	_, cB, jB := registryServer(t, regURL.URL, "b", t.TempDir(), 2)
	info := cA.create(req)
	if info.ID != refInfo.ID {
		t.Fatalf("id skew breaks the byte comparison: %s vs %s", info.ID, refInfo.ID)
	}
	if sug := stepSession(t, cA, info.ID, target, 3); sug.Done {
		t.Fatal("session finished before the drain point")
	}
	shard := journal.ShardOf(info.ID, jA.Shards())
	before, ok := jA.Lease(shard)
	if !ok {
		t.Fatalf("no lease for the session's shard %d", shard)
	}

	var flipped atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if breakSnapshot(body) {
			flipped.Add(1)
		}
		resp, err := http.Post(cB.base+r.URL.RequestURI(), r.Header.Get("Content-Type"), bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	}))
	t.Cleanup(proxy.Close)

	report, err := sA.MigrateShards(context.Background(), proxy.URL)
	if err == nil || !strings.Contains(err.Error(), "successor answered 400") {
		t.Fatalf("drain through a byte-flipping proxy: %v, want the successor's 400", err)
	}
	if flipped.Load() != 1 {
		t.Fatalf("the proxy flipped %d streams, want the session shard's one", flipped.Load())
	}
	if len(report.Damaged) != 0 || report.Sessions != 0 {
		t.Fatalf("refused drain reported %d sessions, damage %v", report.Sessions, report.Damaged)
	}
	if after, ok := jA.Lease(shard); !ok || after.Epoch != before.Epoch {
		t.Fatalf("grant after the refused stream: held %v at epoch %d, want epoch %d", ok, after.Epoch, before.Epoch)
	}
	if jB.Owns(info.ID) {
		t.Fatalf("successor took shard %d over from a refused stream", shard)
	}
	if sug := stepSession(t, cA, info.ID, target, 1); sug.Done {
		t.Fatal("session finished on the drainer before the re-drain")
	}

	report, err = sA.MigrateShards(context.Background(), cB.base)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sessions != 1 || report.Observations != 4 || len(report.Damaged) != 0 {
		t.Fatalf("clean re-drain moved %d sessions / %d observations, damage %v; want 1/4 clean",
			report.Sessions, report.Observations, report.Damaged)
	}
	if got := mustJSON(t, cB.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("migrated result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestMigrateCutStreamRefused: a stream cut mid-line, and a body cut at a
// line boundary short of its Content-Length, are each refused with 400
// before the fence. The lease does not move, so the whole stream, citing
// the same grant, goes through afterwards.
func TestMigrateCutStreamRefused(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, regURL := registryFixture(t)
	_, cA, jA := registryServer(t, regURL.URL, "a", t.TempDir(), 2)
	_, cB, jB := registryServer(t, regURL.URL, "b", t.TempDir(), 2)
	info := cA.create(SessionRequest{Method: "augmented-bo", Seed: 42, DeltaThreshold: -1, MaxMeasurements: 8})
	stepSession(t, cA, info.ID, target, 3)
	shard := journal.ShardOf(info.ID, jA.Shards())
	lease, ok := jA.Lease(shard)
	if !ok {
		t.Fatalf("no lease for the session's shard %d", shard)
	}
	lines, _, err := jA.Image(shard)
	if err != nil {
		t.Fatal(err)
	}

	if st, _ := postStream(t, cB.base, shardLinesType, shard, "a", lease.Epoch, lines[:len(lines)-10]); st != http.StatusBadRequest {
		t.Fatalf("stream cut mid-line answered %d, want 400", st)
	}

	// The header promises the whole image; the body stops after its first
	// line, whole, and the client closes its side.
	conn, err := net.Dial("tcp", strings.TrimPrefix(cB.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := url.Values{"shard": {strconv.Itoa(shard)}, "from": {"a"}, "from_epoch": {strconv.FormatUint(lease.Epoch, 10)}}
	head := fmt.Sprintf("POST /v1/migrate?%s HTTP/1.1\r\nHost: b\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		q.Encode(), shardLinesType, len(lines))
	if _, err := conn.Write(append([]byte(head), lines[:bytes.IndexByte(lines, '\n')+1]...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "reading image") {
		t.Fatalf("body cut short of its Content-Length answered %d %s, want 400 for the read error", resp.StatusCode, body)
	}
	if len(jB.Owned()) != 0 {
		t.Fatalf("refused streams moved shards: %v", jB.Owned())
	}

	st, verdict := postStream(t, cB.base, shardLinesType, shard, "a", lease.Epoch, lines)
	if st != http.StatusOK || verdict.Adopted != 1 || verdict.Epoch <= lease.Epoch {
		t.Fatalf("whole stream at the cited epoch answered %d, adopted %d at epoch %d; want 200, 1 past %d",
			st, verdict.Adopted, verdict.Epoch, lease.Epoch)
	}
}

// TestMigrateMixedVersionsRefused: a drain between this release and the
// one before it is refused in both directions, never misread, so the
// drainer keeps serving. The previous release's drainer POSTs JSON, which
// gets 415 and adopts nothing; the previous release's successor decodes
// a line stream into its request shape with unknown fields disallowed,
// which fails on the first line's "crc" key.
func TestMigrateMixedVersionsRefused(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, regURL := registryFixture(t)
	_, cA, jA := registryServer(t, regURL.URL, "a", t.TempDir(), 2)
	_, cB, jB := registryServer(t, regURL.URL, "b", t.TempDir(), 2)
	info := cA.create(SessionRequest{Method: "augmented-bo", Seed: 42, DeltaThreshold: -1, MaxMeasurements: 8})
	stepSession(t, cA, info.ID, target, 3)
	shard := journal.ShardOf(info.ID, jA.Shards())
	lease, ok := jA.Lease(shard)
	if !ok {
		t.Fatalf("no lease for the session's shard %d", shard)
	}
	lines, _, err := jA.Image(shard)
	if err != nil {
		t.Fatal(err)
	}
	image, err := journal.ReadImage(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(image.Live) != 1 {
		t.Fatalf("image holds %d live chains, want the session's", len(image.Live))
	}

	// parentRequest is the previous release's migration request shape.
	type parentRequest struct {
		Shard      int                `json:"shard"`
		From       string             `json:"from"`
		FromEpoch  uint64             `json:"from_epoch"`
		Sessions   [][]journal.Record `json:"sessions,omitempty"`
		Tombstones []string           `json:"tombstones,omitempty"`
	}
	parent := mustJSON(t, parentRequest{Shard: shard, From: "a", FromEpoch: lease.Epoch, Sessions: [][]journal.Record{image.Live[0].Records}})
	if st, _ := postStream(t, cB.base, "application/json", shard, "a", lease.Epoch, parent); st != http.StatusUnsupportedMediaType {
		t.Fatalf("previous release's JSON stream answered %d, want 415", st)
	}
	if len(jB.Owned()) != 0 || jB.Owns(info.ID) {
		t.Fatalf("refused JSON stream moved shards: %v", jB.Owned())
	}
	if st := cB.do("GET", "/v1/sessions/"+info.ID+"/next", nil, nil); st != http.StatusMisdirectedRequest {
		t.Fatalf("successor answered %d for the session after a refused stream, want 421", st)
	}

	var decoded parentRequest
	dec := json.NewDecoder(bytes.NewReader(lines))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err == nil || !strings.Contains(err.Error(), `"crc"`) {
		t.Fatalf("previous release's decoder read a line stream: %+v, %v", decoded, err)
	}
}

// TestMigrateRejectsStaleEpoch pins the serve-level fence: a migration
// stream citing an outdated lease epoch is refused with 409 and adopts
// nothing — the drainer was superseded and must not hand off sessions
// it no longer owns.
func TestMigrateRejectsStaleEpoch(t *testing.T) {
	_, regURL := registryFixture(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	_, _, jA := registryServer(t, regURL.URL, "a", dirA, 0)
	_, cB, jB := registryServer(t, regURL.URL, "b", dirB, 0)

	shard := jA.Owned()[0]
	lease, ok := jA.Lease(shard)
	if !ok {
		t.Fatalf("no lease for owned shard %d", shard)
	}
	lines, _, err := jA.Image(shard)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := postStream(t, cB.base, shardLinesType, shard, "a", lease.Epoch+5, lines); st != http.StatusConflict {
		t.Fatalf("stale-epoch migration answered %d, want 409", st)
	}
	if jB.Owns("anything") || len(jB.Owned()) != 0 {
		t.Fatalf("refused migration still moved shards: %v", jB.Owned())
	}

	// The genuine epoch goes through, and ownership flips.
	st, resp := postStream(t, cB.base, shardLinesType, shard, "a", lease.Epoch, lines)
	if st != http.StatusOK {
		t.Fatalf("current-epoch migration answered %d", st)
	}
	if resp.Epoch <= lease.Epoch {
		t.Fatalf("adoption epoch %d did not advance past %d", resp.Epoch, lease.Epoch)
	}
	if len(jB.Owned()) != 1 || jB.Owned()[0] != shard {
		t.Fatalf("successor owns %v after adoption, want [%d]", jB.Owned(), shard)
	}
}

// TestMigrateLostResponseDropsShard pins the failed-handoff fence: when
// the successor commits the transfer but the drainer never sees the 200
// (connection torn down mid-response), the drainer must NOT resume
// serving the shard on its stale, locally-unexpired lease — it
// re-verifies with the registry, finds its epoch superseded, and evicts.
// Otherwise drainer and successor both ack writes for the shard until
// the next heartbeat, into divergent journals.
func TestMigrateLostResponseDropsShard(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 7, DeltaThreshold: -1, MaxMeasurements: 8}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, regURL := registryFixture(t)
	sA, cA, jA := registryServer(t, regURL.URL, "a", t.TempDir(), 0)
	_, cB, jB := registryServer(t, regURL.URL, "b", t.TempDir(), 0)

	info := cA.create(req)
	if sug := stepSession(t, cA, info.ID, target, 2); sug.Done {
		t.Fatal("session finished before the drain point")
	}
	shard := journal.ShardOf(info.ID, jA.Shards())

	// The proxy delivers the stream to the real successor, then kills
	// the connection so the drainer's POST errors after the commit.
	relayed := make(chan int, 1)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		resp, err := http.Post(cB.base+r.URL.RequestURI(), r.Header.Get("Content-Type"), bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			relayed <- resp.StatusCode
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(proxy.Close)

	report := &MigrateReport{Successor: proxy.URL}
	if err := sA.migrateShard(context.Background(), proxy.URL, shard, report); err == nil {
		t.Fatal("migrateShard returned nil though the response was torn down")
	}
	if st := <-relayed; st != http.StatusOK {
		t.Fatalf("successor answered %d to the relayed stream, want 200", st)
	}

	// The drainer must have noticed its epoch was superseded: shard
	// dropped, session evicted.
	for _, sh := range jA.Owned() {
		if sh == shard {
			t.Fatalf("drainer still owns shard %d after a committed handoff", shard)
		}
	}
	if n := sA.SessionCount(); n != 0 {
		t.Fatalf("drainer still holds %d sessions after losing the shard", n)
	}
	if st := cA.do("GET", "/v1/sessions/"+info.ID+"/next", nil, nil); st != http.StatusMisdirectedRequest {
		t.Fatalf("drained replica answered %d for the lost shard, want 421", st)
	}

	// And the successor really owns it and serves the session.
	if !jB.Owns(info.ID) {
		t.Fatalf("successor does not own the transferred session's shard %d", shard)
	}
	stepSession(t, cB, info.ID, target, 1)
}

// TestMigrateRefusedHandoffResumes covers the resume path: a successor
// that refuses the stream leaves the drainer holding the shard again at
// its original epoch. While the hand-off is in flight the drainer
// answers 421 for the session without advancing it, so once the grant
// is reinstated the session finishes byte-identical to an uninterrupted
// run.
func TestMigrateRefusedHandoffResumes(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 8}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	refInfo := ref.create(req)
	want := mustJSON(t, ref.run(refInfo.ID, target))

	_, regURL := registryFixture(t)
	sA, cA, jA := registryServer(t, regURL.URL, "a", t.TempDir(), 2)
	info := cA.create(req)
	if info.ID != refInfo.ID {
		t.Fatalf("id skew breaks the byte comparison: %s vs %s", info.ID, refInfo.ID)
	}
	if sug := stepSession(t, cA, info.ID, target, 3); sug.Done {
		t.Fatal("session finished before the drain point")
	}
	shard := journal.ShardOf(info.ID, jA.Shards())
	before, ok := jA.Lease(shard)
	if !ok {
		t.Fatalf("no lease for the session's shard %d", shard)
	}

	// The stand-in successor asks the drainer for the session while the
	// stream is in flight, then refuses the stream.
	midHandoff := make(chan int, 1)
	refuser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(cA.base + "/v1/sessions/" + info.ID + "/next")
		if err != nil {
			t.Error(err)
			midHandoff <- 0
		} else {
			resp.Body.Close()
			midHandoff <- resp.StatusCode
		}
		http.Error(w, "successor unavailable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(refuser.Close)

	if err := sA.migrateShard(context.Background(), refuser.URL, shard, &MigrateReport{}); err == nil {
		t.Fatal("migrateShard returned nil though the successor refused the stream")
	}
	if st := <-midHandoff; st != http.StatusMisdirectedRequest {
		t.Fatalf("drainer answered %d for the session mid-hand-off, want 421", st)
	}
	after, ok := jA.Lease(shard)
	if !ok || after.Epoch != before.Epoch {
		t.Fatalf("grant after the refused hand-off: held %v at epoch %d, want epoch %d back", ok, after.Epoch, before.Epoch)
	}
	if got := mustJSON(t, cA.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("resumed result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestMigrateReportsShardDamageOnce: a shard's mid-file damage is
// reported by the drain that moves the shard, and only by it. A drain
// the successor refuses reports none, and the retry that moves the
// shard reports the damaged line once.
func TestMigrateReportsShardDamageOnce(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, regURL := registryFixture(t)
	dirA := t.TempDir()
	sA, cA, jA := registryServer(t, regURL.URL, "a", dirA, 0)
	_, cB, _ := registryServer(t, regURL.URL, "b", t.TempDir(), 0)
	info := cA.create(SessionRequest{Method: "augmented-bo", Seed: 7, DeltaThreshold: -1, MaxMeasurements: 8})
	stepSession(t, cA, info.ID, target, 1)
	// A damaged line, then the session's next step after it: mid-file
	// damage, which breaks no chain.
	shard := journal.ShardOf(info.ID, jA.Shards())
	f, err := os.OpenFile(filepath.Join(dirA, shardName(shard)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := f.WriteString("{\"crc\":1,\"rec\":{}}\n")
	if cerr := f.Close(); werr != nil || cerr != nil {
		t.Fatal(werr, cerr)
	}
	stepSession(t, cA, info.ID, target, 1)

	refuser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "successor unavailable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(refuser.Close)
	refused := &MigrateReport{}
	if err := sA.migrateShard(context.Background(), refuser.URL, shard, refused); err == nil {
		t.Fatal("migrateShard returned nil though the successor refused the stream")
	}
	if len(refused.Shards) != 0 || len(refused.Damaged) != 0 {
		t.Fatalf("refused drain reported shards %v, damage %v; want neither", refused.Shards, refused.Damaged)
	}

	report, err := sA.MigrateShards(context.Background(), cB.base)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sessions != 1 || len(report.Damaged) != 1 || !strings.Contains(report.Damaged[0], shardName(shard)) {
		t.Fatalf("moving drain: %d sessions, damage %v; want 1 and shard %d's damaged line once", report.Sessions, report.Damaged, shard)
	}
}

// TestMigrateBouncedEndedSessionStaysGone: a session drained from A to
// B, run to its end on B and drained back leaves its old live chain in
// A's shard beside the tombstone the drain back delivered. The tombstone
// outranks the chain: A answers 410 for the session after a restart, and
// again after a forced compaction and another restart.
func TestMigrateBouncedEndedSessionStaysGone(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, regURL := registryFixture(t)
	dirA := t.TempDir()
	sA, cA, jA := registryServer(t, regURL.URL, "a", dirA, 0)
	sB, cB, _ := registryServer(t, regURL.URL, "b", t.TempDir(), 0)
	info := cA.create(SessionRequest{Method: "augmented-bo", Seed: 42, DeltaThreshold: -1, MaxMeasurements: 4})
	if sug := stepSession(t, cA, info.ID, target, 2); sug.Done {
		t.Fatal("session finished before the first drain")
	}
	if _, err := sA.MigrateShards(context.Background(), cB.base); err != nil {
		t.Fatal(err)
	}
	cB.run(info.ID, target)
	if _, err := sB.MigrateShards(context.Background(), cA.base); err != nil {
		t.Fatal(err)
	}
	gone := func(c *client, when string) {
		t.Helper()
		if st := c.do("GET", "/v1/sessions/"+info.ID+"/next", nil, nil); st != http.StatusGone {
			t.Fatalf("%s: ended session answered %d, want 410", when, st)
		}
	}
	gone(cA, "after the drain back")

	for _, compact := range []bool{false, true} {
		if compact {
			if _, err := sA.CompactJournal(journal.CompactOptions{Force: true}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sA.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := jA.Close(); err != nil {
			t.Fatal(err)
		}
		sA, cA, jA = registryServer(t, regURL.URL, "a", dirA, 0)
		report, err := sA.Recover(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if report.Recovered != 0 {
			t.Fatalf("restart (compacted %v) recovered %d sessions, want the ended one tombstoned: %+v", compact, report.Recovered, report)
		}
		if report.Ended+report.Tombstones != 1 {
			t.Fatalf("restart (compacted %v) counted the one bounced session %d times: %+v", compact, report.Ended+report.Tombstones, report)
		}
		gone(cA, fmt.Sprintf("after a restart, compacted %v", compact))
	}
}

// TestCreateRacingDrainIsRefused pins the create-vs-drain fence: a
// create whose id was minted before a drain dropped its shard must not
// be acknowledged, or the client would hold a 201 for a session the
// successor never received. The store's clock, read after the id is
// minted and before the create append, drops every owned shard once;
// the journal then refuses the create record and the handler answers
// 421. Once the grants are reinstated (a failed hand-off resuming) the
// refused id is unknown, not half-alive, and creates work again.
func TestCreateRacingDrainIsRefused(t *testing.T) {
	_, regURL := registryFixture(t)
	dir := t.TempDir()
	jA, err := journal.Open(dir, journal.WithReplica("a"),
		journal.WithLeaseManager(registry.NewClient(regURL.URL, "a", "", dir)), journal.WithWarnf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	var (
		dropMu sync.Mutex
		armed  bool
		aside  []journal.Lease
	)
	sA := New(Config{Journal: jA, Warnf: t.Logf, Now: func() time.Time {
		dropMu.Lock()
		defer dropMu.Unlock()
		if armed {
			armed = false
			for _, shard := range jA.Owned() {
				if l, ok := jA.DropShard(shard); ok {
					aside = append(aside, l)
				}
			}
		}
		return time.Now()
	}})
	hs := httptest.NewServer(sA)
	t.Cleanup(hs.Close)
	cA := newClient(t, hs)

	req := SessionRequest{Method: "random-search", Seed: 1, MaxMeasurements: 4}
	dropMu.Lock()
	armed = true
	dropMu.Unlock()
	if st := cA.do("POST", "/v1/sessions", req, nil); st != http.StatusMisdirectedRequest {
		t.Fatalf("create racing a drain answered %d, want 421", st)
	}

	dropMu.Lock()
	dropped := aside
	dropMu.Unlock()
	if len(dropped) == 0 {
		t.Fatal("the create never reached the store's clock")
	}
	for _, l := range dropped {
		if held, err := jA.Reinstate(l); !held || err != nil {
			t.Fatalf("reinstating shard %d: held %v, %v", l.Shard, held, err)
		}
	}
	if st := cA.do("GET", "/v1/sessions/s-000001/next", nil, nil); st != http.StatusNotFound {
		t.Fatalf("refused session still answers %d, want 404", st)
	}
	cA.create(req) // and creates work again once the grants are back
}

// TestCreateUnderLapsedLeasesAnswers503: when no held grant is live — a
// registry outage past the lease margin — a create must answer 503
// promptly instead of drawing session ids forever.
func TestCreateUnderLapsedLeasesAnswers503(t *testing.T) {
	var clockMu sync.Mutex
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	reg, err := registry.New(registry.Config{LeaseTTL: time.Second, Now: now, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.WithReplica("a"),
		journal.WithLeaseManager(reg.Client("a", "http://a", dir)),
		journal.WithNow(now), journal.WithWarnf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	hs := httptest.NewServer(New(Config{Journal: j, Warnf: t.Logf}))
	t.Cleanup(hs.Close)

	clockMu.Lock()
	clock = clock.Add(900 * time.Millisecond)
	clockMu.Unlock()
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Post(hs.URL+"/v1/sessions", "application/json",
		bytes.NewReader(mustJSON(t, SessionRequest{Method: "random-search", Seed: 1})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create under lapsed leases answered %d, want 503", resp.StatusCode)
	}
}

// TestMigrateRejectsForeignShardChains pins the stream-content fence: a
// chain or tombstone whose session id hashes outside the migrating
// shard must be reported damaged, not re-journaled into a shard the
// transfer never fenced.
func TestMigrateRejectsForeignShardChains(t *testing.T) {
	_, regURL := registryFixture(t)
	_, _, jA := registryServer(t, regURL.URL, "a", t.TempDir(), 0)
	_, cB, _ := registryServer(t, regURL.URL, "b", t.TempDir(), 0)

	shard := jA.Owned()[0]
	lease, ok := jA.Lease(shard)
	if !ok {
		t.Fatalf("no lease for owned shard %d", shard)
	}
	var inShard, outShard []string
	for i := 0; len(inShard) < 1 || len(outShard) < 2; i++ {
		id := fmt.Sprintf("x-%06d", i)
		if journal.ShardOf(id, jA.Shards()) == shard {
			inShard = append(inShard, id)
		} else {
			outShard = append(outShard, id)
		}
	}

	stream := shardLines(t,
		journal.Record{Kind: journal.KindTombstoneIndex, Tombstones: []string{inShard[0], outShard[1]}},
		journal.Record{Session: outShard[0], Seq: 0, Kind: journal.KindCreate})
	st, resp := postStream(t, cB.base, shardLinesType, shard, "a", lease.Epoch, stream)
	if st != http.StatusOK {
		t.Fatalf("migration answered %d", st)
	}
	if resp.Adopted != 0 {
		t.Fatalf("adopted %d foreign-shard sessions, want 0", resp.Adopted)
	}
	if len(resp.Damaged) != 2 {
		t.Fatalf("damage reports %v, want one per foreign chain and tombstone", resp.Damaged)
	}
	if resp.Tombstones != 1 {
		t.Fatalf("folded %d tombstones, want only the in-shard one", resp.Tombstones)
	}
}

// TestLapsedLeaseObserveNotAcked: an observe racing its shard lease's
// expiry must not be acknowledged unless its record is on disk. A
// registry lease on a fake clock lapses while an observe is in flight —
// either before the handler takes the session mutex (the fence refuses
// it) or between that fence and the append (the failed append drops the
// session from memory without a terminal record). Either way the reply
// is not 200, the shard holds no record of the observe, and a fresh
// journal and server recover exactly the acknowledged observations and
// finish byte-identical to an uninterrupted run.
func TestLapsedLeaseObserveNotAcked(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true, DeltaThreshold: -1, MaxMeasurements: 8}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	refInfo := ref.create(req)
	want := mustJSON(t, ref.run(refInfo.ID, target))

	for _, lapse := range []string{"before-fence", "at-append"} {
		t.Run(lapse, func(t *testing.T) {
			var clockMu sync.Mutex
			clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			now := func() time.Time {
				clockMu.Lock()
				defer clockMu.Unlock()
				return clock
			}
			reg, err := registry.New(registry.Config{Shards: 1, LeaseTTL: time.Second, Now: now, Warnf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			open := func(jnow func() time.Time) *journal.Journal {
				t.Helper()
				j, err := journal.Open(dir, journal.WithReplica("a"), journal.WithShards(1),
					journal.WithLeaseManager(reg.Client("a", "http://a", dir)),
					journal.WithNow(jnow), journal.WithWarnf(t.Logf))
				if err != nil {
					t.Fatal(err)
				}
				return j
			}

			// The at-append case lapses the lease for the journal's third
			// clock read after arming: resolve's fence, the handler's fence
			// under the session mutex, then the append.
			var reads, lapseAt atomic.Int32
			j1 := open(func() time.Time {
				if at := lapseAt.Load(); at > 0 && reads.Add(1) >= at {
					return now().Add(time.Second)
				}
				return now()
			})
			// The before-fence case learns from the store's clock that the
			// observe has passed resolve.
			var resolving atomic.Bool
			resolved := make(chan struct{}, 1)
			s1 := New(Config{Journal: j1, Warnf: t.Logf, Now: func() time.Time {
				if resolving.Load() {
					select {
					case resolved <- struct{}{}:
					default:
					}
				}
				return now()
			}})
			hs := httptest.NewServer(s1)
			t.Cleanup(hs.Close)
			c1 := newClient(t, hs)
			info := c1.create(req)
			if info.ID != refInfo.ID {
				t.Fatalf("id skew breaks the byte comparison: %s vs %s", info.ID, refInfo.ID)
			}
			sug := stepSession(t, c1, info.ID, target, 2)
			if sug.Done {
				t.Fatal("session finished before the lapse")
			}
			out, merr := target.Measure(sug.Index)
			if merr != nil {
				t.Fatal(merr)
			}
			body := mustJSON(t, ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})
			replied := make(chan int, 1)
			post := func() {
				resp, err := hs.Client().Post(hs.URL+"/v1/sessions/"+info.ID+"/observe", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					replied <- 0
					return
				}
				resp.Body.Close()
				replied <- resp.StatusCode
			}

			switch lapse {
			case "before-fence":
				sess, status, _ := s1.store.get(info.ID)
				if status != lookupOK {
					t.Fatalf("session %s not live", info.ID)
				}
				sess.mu.Lock()
				resolving.Store(true)
				go post()
				select {
				case <-resolved:
				case <-time.After(10 * time.Second):
					sess.mu.Unlock()
					t.Fatal("observe never reached resolve")
				}
				clockMu.Lock()
				clock = clock.Add(time.Second)
				clockMu.Unlock()
				sess.mu.Unlock()
			case "at-append":
				lapseAt.Store(3)
				go post()
			}
			if st := <-replied; st != http.StatusMisdirectedRequest {
				t.Fatalf("observe under a lapsing lease answered %d, want 421", st)
			}
			if lapse == "at-append" && s1.SessionCount() != 0 {
				t.Errorf("%d sessions still in memory after the failed append, want the session dropped", s1.SessionCount())
			}

			scan, err := journal.ScanDir(dir, []int{0}, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if len(scan.Live) != 1 || len(scan.Damage) != 0 {
				t.Fatalf("journal holds %d live chains, damage %v; want the one session, undamaged", len(scan.Live), scan.Damage)
			}
			for _, rec := range scan.Live[0].Records {
				if rec.Kind == journal.KindObserve && rec.Index == sug.Index {
					t.Fatalf("the unacknowledged observe of candidate %d reached the journal at seq %d", sug.Index, rec.Seq)
				}
			}

			s2 := New(Config{Journal: open(now), Warnf: t.Logf})
			hs2 := httptest.NewServer(s2)
			t.Cleanup(hs2.Close)
			report, err := s2.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if report.Recovered != 1 || report.Observations != 2 || len(report.Damaged) != 0 {
				t.Fatalf("recovered %d sessions / %d observations, damaged %v; want 1 / the 2 acknowledged", report.Recovered, report.Observations, report.Damaged)
			}
			if got := mustJSON(t, newClient(t, hs2).run(info.ID, target)); !bytes.Equal(got, want) {
				t.Errorf("recovered result diverged from the uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}
