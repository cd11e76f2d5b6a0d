package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	arrow "repro"
	"repro/internal/journal"
)

// journaledServer builds a server over its own journal handle without
// the automatic Shutdown cleanup, so tests can abandon it mid-session —
// the in-process stand-in for kill -9 (the real SIGKILL test lives in
// cmd/arrow-serve). Abandoning closes the journal handle: Close writes
// no record, and closing every descriptor is what the kernel does at
// kill -9, which drops the shard locks for the restarted server.
func journaledServer(t *testing.T, dir, replica string, opts ...journal.Option) (*Server, *client, *journal.Journal) {
	t.Helper()
	opts = append([]journal.Option{journal.WithReplica(replica)}, opts...)
	j, err := journal.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Journal: j, Warnf: t.Logf})
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, newClient(t, hs), j
}

// stepSession drives n observe rounds against the session and returns
// the last suggestion handed back.
func stepSession(t *testing.T, c *client, id string, target arrow.Target, n int) arrow.Suggestion {
	t.Helper()
	sug := c.next(id)
	for i := 0; i < n && !sug.Done; i++ {
		out, merr := target.Measure(sug.Index)
		var req ObserveRequest
		if merr != nil {
			req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
		} else {
			req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
		}
		sug = c.followUp(id, c.observe(id, req))
	}
	return sug
}

// mustJSON marshals for byte comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashRecoverByteIdenticalResult is the tentpole acceptance test
// at the package level: a session interrupted mid-flight (server
// abandoned without shutdown, exactly the state kill -9 leaves) and
// finished on a recovered server must produce a result response —
// recommendation AND wall-stripped trace — byte-identical to the
// uninterrupted run.
func TestCrashRecoverByteIdenticalResult(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference run, no journal involved.
	_, ref := newTestServer(t, Config{})
	refInfo := ref.create(req)
	want := mustJSON(t, ref.run(refInfo.ID, target))

	// The crashed run: observe a few steps, then walk away.
	dir := t.TempDir()
	_, c1, j1 := journaledServer(t, dir, "crash-test")
	info := c1.create(req)
	if info.ID != refInfo.ID {
		t.Fatalf("id skew breaks the byte comparison: %s vs %s", info.ID, refInfo.ID)
	}
	if sug := stepSession(t, c1, info.ID, target, 3); sug.Done {
		t.Fatal("session finished before the crash point; pick a longer method")
	}

	// Crash, then restart: a new journal handle under the same replica
	// name claims the shards the abandoned one held.
	j1.Close()
	s2, c2, _ := journaledServer(t, dir, "crash-test")
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 3 {
		t.Fatalf("recovered %d sessions / %d observations, want 1/3 (report %+v)", report.Recovered, report.Observations, report)
	}
	if len(report.Damaged) != 0 {
		t.Fatalf("clean journal reported damage: %v", report.Damaged)
	}

	got := mustJSON(t, c2.run(info.ID, target))
	if !bytes.Equal(got, want) {
		t.Errorf("recovered result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// Zero lost observations also means zero duplicated measurements:
	// the recovered advisor continued from step 3, it did not re-ask.
	var res ResultResponse
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || len(res.Result.Observations) < 3 {
		t.Fatalf("result lost observations: %+v", res.Result)
	}
}

// TestGracefulShutdownRehydrates pins the rolling-restart contract:
// Shutdown flushes sessions but journals no terminal record, so the
// next boot rehydrates them and the client finishes normally.
func TestGracefulShutdownRehydrates(t *testing.T) {
	req := SessionRequest{Method: "naive-bo", Seed: 7, Trace: true}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	// In the racing case a request meets the search after Shutdown's
	// flush aborted it but before the flush ends the session: it answers
	// Done, as any request during the drain does, and must not journal
	// the session as ended.
	for _, racing := range []bool{false, true} {
		t.Run(fmt.Sprintf("racing=%v", racing), func(t *testing.T) {
			dir := t.TempDir()
			s1, c1, j1 := journaledServer(t, dir, "roller")
			info := c1.create(req)
			stepSession(t, c1, info.ID, target, 2)
			if racing {
				sess, status, _ := s1.store.get(info.ID)
				if status != lookupOK {
					t.Fatalf("session %s not live", info.ID)
				}
				sess.advisor.Abort(errShutdownFlush)
				if sug := c1.next(info.ID); !sug.Done {
					t.Fatalf("next on a flushed search = %+v, want Done", sug)
				}
			}
			if err := s1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := j1.Close(); err != nil {
				t.Fatal(err)
			}

			s2, c2, _ := journaledServer(t, dir, "roller")
			report, err := s2.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if report.Recovered != 1 {
				t.Fatalf("drained session did not rehydrate: %+v", report)
			}
			if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
				t.Errorf("post-restart result diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRecoverEndedSessionsAnswerGone pins the terminal side: a session
// the journal says ended answers 410 across a restart, not 404 and not
// a replay.
func TestRecoverEndedSessionsAnswerGone(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, c1, j1 := journaledServer(t, dir, "gone")
	info := c1.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 4})
	c1.run(info.ID, target) // to completion: journals an end record
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, c2, _ := journaledServer(t, dir, "gone")
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 0 || report.Ended != 1 {
		t.Fatalf("want 0 recovered / 1 ended, got %+v", report)
	}
	if st := c2.do("GET", "/v1/sessions/"+info.ID+"/result", nil, nil); st != http.StatusGone {
		t.Fatalf("ended session answered %d, want 410", st)
	}
}

// TestRecoverDamagedJournal feeds recovery a journal with a torn tail
// and a mid-file corrupt line: the broken session is reported and
// dropped, every other session recovers and finishes.
func TestRecoverDamagedJournal(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, c1, j1 := journaledServer(t, dir, "damage")
	healthy := c1.create(SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true})
	victim := c1.create(SessionRequest{Method: "naive-bo", Seed: 5})
	stepSession(t, c1, healthy.ID, target, 2)
	stepSession(t, c1, victim.ID, target, 2)
	// Abandon without shutdown; damage the shards behind the server's
	// back, as a dying disk would.
	shards := j1.Shards()
	j1.Close()

	// Mid-file corruption: flip one byte inside the victim's create
	// line (its shard holds at least its later records, so the line is
	// not the tail). The CRC catches the flip, the chain breaks, the
	// session is dropped as damaged.
	victimShard := filepath.Join(dir, shardName(journal.ShardOf(victim.ID, shards)))
	data, err := os.ReadFile(victimShard)
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte(`"kind":"create"`)
	// Corrupt the victim's create record, found by sid on the same line.
	idx := -1
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.Contains(line, []byte(victim.ID)) && bytes.Contains(line, marker) {
			idx = bytes.Index(data, line) + bytes.Index(line, marker)
			break
		}
	}
	if idx < 0 {
		t.Fatal("victim create line not found")
	}
	data[idx+9] ^= 0x20 // flips 'c' in "create" inside the checksummed bytes
	if err := os.WriteFile(victimShard, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Torn tail: a half-written line on the healthy session's shard,
	// the signature of kill -9 mid-append.
	healthyShard := filepath.Join(dir, shardName(journal.ShardOf(healthy.ID, shards)))
	f, err := os.OpenFile(healthyShard, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":123,"rec":{"sid":"` + healthy.ID + `","seq":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, c2, _ := journaledServer(t, dir, "damage")
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 {
		t.Fatalf("healthy session did not recover: %+v", report)
	}
	if report.TruncatedTails != 1 {
		t.Fatalf("torn tail not truncated: %+v", report)
	}
	found := false
	for _, d := range report.Damaged {
		if strings.Contains(d, victim.ID) || strings.Contains(d, "crc") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt line not reported: %+v", report.Damaged)
	}
	// The healthy session finishes; the victim is gone (404 — its
	// records were dropped, it was never tombstoned as ended).
	if res := c2.run(healthy.ID, target); res.Result == nil {
		t.Fatal("recovered session returned no result")
	}
	if st := c2.do("GET", "/v1/sessions/"+victim.ID+"/result", nil, nil); st != http.StatusNotFound {
		t.Fatalf("damaged session answered %d, want 404", st)
	}
}

// TestTwoReplicasServeDisjointShards pins the multi-replica partition:
// two servers over one journal directory claim disjoint shard sets,
// mint ids only in their own shards, and answer 421 for each other's
// sessions.
func TestTwoReplicasServeDisjointShards(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sA, cA, jA := journaledServer(t, dir, "alpha", journal.WithClaimLimit(4))
	sB, cB, jB := journaledServer(t, dir, "beta")
	if _, err := sA.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ownedA, ownedB := jA.Owned(), jB.Owned()
	if len(ownedA) != 4 || len(ownedB) != journal.DefaultShards-4 {
		t.Fatalf("partition skew: alpha %v, beta %v", ownedA, ownedB)
	}
	for _, a := range ownedA {
		for _, b := range ownedB {
			if a == b {
				t.Fatalf("shard %d double-claimed", a)
			}
		}
	}

	infoA := cA.create(SessionRequest{Method: "random-search", Seed: 1, MaxMeasurements: 3})
	infoB := cB.create(SessionRequest{Method: "random-search", Seed: 2, MaxMeasurements: 3})
	if infoA.ID == infoB.ID {
		t.Fatalf("replicas minted the same id %s", infoA.ID)
	}
	if !jA.Owns(infoA.ID) || !jB.Owns(infoB.ID) {
		t.Fatal("replica minted an id outside its shards")
	}

	// Cross-replica requests are misdirected, not 404: the client knows
	// to retry against the owning replica.
	if st := cB.do("GET", "/v1/sessions/"+infoA.ID+"/next", nil, nil); st != http.StatusMisdirectedRequest {
		t.Fatalf("beta answered %d for alpha's session, want 421", st)
	}
	if st := cA.do("GET", "/v1/sessions/"+infoB.ID+"/next", nil, nil); st != http.StatusMisdirectedRequest {
		t.Fatalf("alpha answered %d for beta's session, want 421", st)
	}

	// Both replicas serve their own sessions to completion.
	if res := cA.run(infoA.ID, target); res.Result == nil {
		t.Fatal("alpha session returned no result")
	}
	if res := cB.run(infoB.ID, target); res.Result == nil {
		t.Fatal("beta session returned no result")
	}
}

// shardName mirrors the journal's shard file naming.
func shardName(shard int) string {
	return "journal-" + twoDigits(shard) + ".jsonl"
}

func twoDigits(n int) string {
	return string([]byte{'0' + byte(n/10), '0' + byte(n%10)})
}
