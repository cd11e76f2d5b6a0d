package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// shardSizes maps every shard file in a journal directory to its size.
func shardSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64, len(paths))
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = info.Size()
	}
	return sizes
}

// kindsSince decodes the records a shard file gained past offset.
func kindsSince(t *testing.T, path string, offset int64) []journal.Kind {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []journal.Kind
	for _, line := range bytes.Split(bytes.TrimSuffix(data[offset:], []byte("\n")), []byte("\n")) {
		rec, err := journal.DecodeLine(line)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		kinds = append(kinds, rec.Kind)
	}
	return kinds
}

// measure turns one measurement of the suggestion into its observe body.
func measure(t *testing.T, target arrow.Target, sug arrow.Suggestion) ObserveRequest {
	t.Helper()
	out, err := target.Measure(sug.Index)
	if err != nil {
		t.Fatalf("measuring %d: %v", sug.Index, err)
	}
	return ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
}

// TestObserveJournalsFollowUpInOneAppend: when the journal syncs every
// append, an observe waits for the suggestion it unlocks and journals
// it in the observation's own Append — with the snapshot that falls due
// at that step, or with the end record when the search stops there —
// and returns it as next, so the client's GET next finds everything on
// disk and writes nothing. The journal's clock counts the appends: each
// request's two shard fences read it once apiece, every Append once more.
func TestObserveJournalsFollowUpInOneAppend(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var reads atomic.Int32
	s, c, j := snapshotServer(t, dir, "a", 2, journal.WithNow(func() time.Time {
		reads.Add(1)
		return time.Now()
	}))
	if j.SyncPolicy() != journal.SyncAlways {
		t.Fatalf("journal.Open defaults to fsync %v, want always", j.SyncPolicy())
	}
	info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 5})
	path := filepath.Join(dir, shardName(journal.ShardOf(info.ID, j.Shards())))
	sess, _, _ := s.store.get(info.ID)

	sug := c.next(info.ID)
	snapshots, ended := 0, false
	for step := 1; !sug.Done; step++ {
		req := measure(t, target, sug)
		before := shardSizes(t, dir)
		reads.Store(0)
		resp := c.observe(info.ID, req)
		if resp.Next == nil {
			t.Fatalf("step %d: observe acknowledged without next under fsync always", step)
		}
		if n := reads.Load() - 2; n != 1 {
			t.Fatalf("step %d: observe made %d journal appends, want 1", step, n)
		}
		want := []journal.Kind{journal.KindObserve, journal.KindSuggest}
		switch {
		case resp.Next.Done:
			want = []journal.Kind{journal.KindObserve, journal.KindEnd}
			ended = true
		case step%2 == 0:
			want = append(want, journal.KindSnapshot)
			snapshots++
		}
		if got := kindsSince(t, path, before[path]); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: observe journaled %v, want %v", step, got, want)
		}
		// The session's record queue outlives the request; a committed
		// snapshot payload must not stay reachable through it.
		sess.mu.Lock()
		for i, rec := range sess.staged[:cap(sess.staged)] {
			if !reflect.DeepEqual(rec, journal.Record{}) {
				t.Fatalf("step %d: staging slot %d still holds committed %s record", step, i, rec.Kind)
			}
		}
		sess.mu.Unlock()

		before = shardSizes(t, dir)
		reads.Store(0)
		got := c.next(info.ID)
		if got != *resp.Next {
			t.Fatalf("step %d: GET next = %+v, want the observe's next %+v", step, got, *resp.Next)
		}
		if n := reads.Load() - 2; n != 0 {
			t.Fatalf("step %d: GET next made %d journal appends, want none", step, n)
		}
		if after := shardSizes(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("step %d: GET next changed shard sizes %v -> %v", step, before, after)
		}
		sug = got
	}
	if snapshots == 0 || !ended {
		t.Fatalf("session saw %d snapshots, ended=%v; want both exercised", snapshots, ended)
	}
	if res := c.result(info.ID); res.Result == nil || res.Result.Partial {
		t.Fatalf("result = %+v, want the complete search", res.Result)
	}
}

// TestObserveSpeculatesWithoutSync: a journal that does not sync keeps
// speculation: observe acknowledges without next, and the GET next that
// collects the plan journals its suggestion and counts a speculate_hit.
func TestObserveSpeculatesWithoutSync(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(t.TempDir(), journal.WithReplica("a"), journal.WithSync(journal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	rec := telemetry.NewRecorder()
	_, c := newTestServer(t, Config{Journal: j, Tracer: rec, Warnf: t.Logf})
	info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 4})
	suggestions := 0
	for sug := c.next(info.ID); !sug.Done; sug = c.next(info.ID) {
		if resp := c.observe(info.ID, measure(t, target, sug)); resp.Next != nil {
			t.Fatalf("observe under fsync never carries next %+v; want speculation", resp.Next)
		}
		suggestions++
	}
	hits := 0
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindSpeculateHit && e.Name == info.ID {
			hits++
		}
	}
	// Every suggestion after the first collected a plan an observe left
	// running; the last observe's plan ended in Done.
	if hits != suggestions-1 || hits == 0 {
		t.Fatalf("%d speculate_hit events over %d suggestions, want %d", hits, suggestions, suggestions-1)
	}
}

// TestObserveSpeculatesWhileBatchOutstanding: under a journal that
// syncs every append, an observe returns its follow-up inline only once
// every suggestion the session served has been observed. While a batch's
// other suggestions are outstanding the batch has journaled them, so the
// observe is acknowledged without next and writes its observation
// alone; the batch's last observe carries next, journaled in its write.
// The outstanding count survives a crash: the batch is finished on a
// recovered server.
func TestObserveSpeculatesWhileBatchOutstanding(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, c, j := journaledServer(t, dir, "a")
	info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 8})
	path := filepath.Join(dir, shardName(journal.ShardOf(info.ID, j.Shards())))
	batch := c.nextBatch(info.ID, 3)
	if len(batch) != 3 {
		t.Fatalf("nextbatch served %d suggestions, want 3", len(batch))
	}
	for i, sug := range batch {
		if i == 1 {
			j.Close() // abandon (kill -9 semantics)
			s2, c2, _ := journaledServer(t, dir, "a")
			if _, err := s2.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
			c = c2
		}
		last := i == len(batch)-1
		before := shardSizes(t, dir)[path]
		resp := c.observe(info.ID, measure(t, target, sug))
		if (resp.Next != nil) != last {
			t.Fatalf("observe %d of %d: next = %+v; want next on the batch's last observe only", i+1, len(batch), resp.Next)
		}
		want := []journal.Kind{journal.KindObserve}
		if last {
			want = append(want, journal.KindSuggest)
		}
		if got := kindsSince(t, path, before); !reflect.DeepEqual(got, want) {
			t.Fatalf("observe %d of %d journaled %v, want %v", i+1, len(batch), got, want)
		}
	}
}

// TestObserveLeftoverBatchSuggestionAfterDone: a batch can leave
// suggestions the search never comes back to — here every round
// observes only the batch's head, and with the stop rules off the
// augmented planner's fantasies diverge from the loop's real picks.
// Observing a leftover after the session answered Done meets 409, like
// any observe after the stop; the finished session stays served and its
// result reachable. (Accepted by the advisor, the observation used to
// meet the chain closed by the end record: 503, and the session was
// dropped.)
func TestObserveLeftoverBatchSuggestionAfterDone(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := journaledServer(t, t.TempDir(), "a")
	info := c.create(SessionRequest{Method: "augmented-bo", Seed: 1, MaxMeasurements: 8, DeltaThreshold: -1, EIStopFraction: -1})
	leftover := map[int]arrow.Suggestion{}
	for {
		batch := c.nextBatch(info.ID, 3)
		if batch[0].Done {
			break
		}
		for _, sug := range batch {
			leftover[sug.Seq] = sug
		}
		c.observe(info.ID, measure(t, target, batch[0]))
		delete(leftover, batch[0].Seq)
	}
	if len(leftover) == 0 {
		t.Fatal("the batches left no suggestion unobserved; the test needs a seed that does")
	}
	for _, sug := range leftover {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/observe", measure(t, target, sug), nil); st != http.StatusConflict {
			t.Fatalf("observing leftover suggestion %+v after Done: status %d, want 409", sug, st)
		}
	}
	if res := c.result(info.ID); res.Result == nil || res.Result.Partial {
		t.Fatalf("result = %+v, want the complete search", res.Result)
	}
}

// hourLeases grants every shard for an hour, so a journal clock that
// jumps a day ahead lapses the grant.
type hourLeases struct{}

func (hourLeases) Acquire(shard int) (journal.Lease, bool, error) {
	return journal.Lease{Shard: shard, Epoch: 1, Expiry: time.Now().Add(time.Hour)}, true, nil
}

func (hourLeases) Renew(l journal.Lease) (journal.Lease, bool, error) { return l, true, nil }

func (hourLeases) Release(journal.Lease) error { return nil }

// TestDoneSurvivesLostEndRecord: a GET next or nextbatch that finds the
// search finished answers Done even when its end record cannot be
// written. That record only closes the chain — a finished session left
// live in the journal is rehydrated by recovery — so the session stays
// served and its result reachable. The journal's clock lapses the lease
// for exactly the end record's Append: each request's two shard fences
// read the clock first.
func TestDoneSurvivesLostEndRecord(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, endpoint := range []string{"next", "nextbatch"} {
		t.Run(endpoint, func(t *testing.T) {
			var reads, lapseAt atomic.Int32
			j, err := journal.Open(t.TempDir(), journal.WithReplica("a"), journal.WithSync(journal.SyncNever),
				journal.WithLeaseManager(hourLeases{}), journal.WithNow(func() time.Time {
					if reads.Add(1) == lapseAt.Load() {
						return time.Now().Add(24 * time.Hour)
					}
					return time.Now()
				}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			_, c := newTestServer(t, Config{Journal: j, Warnf: t.Logf})
			info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 2})
			for i := 0; i < 2; i++ {
				c.observe(info.ID, measure(t, target, c.next(info.ID)))
			}

			lapseAt.Store(reads.Load() + 3)
			var done bool
			if endpoint == "next" {
				done = c.next(info.ID).Done
			} else {
				sugs := c.nextBatch(info.ID, 2)
				done = len(sugs) == 1 && sugs[0].Done
			}
			if !done {
				t.Fatalf("%s after the last observation did not answer Done", endpoint)
			}
			if reads.Load() < lapseAt.Load() {
				t.Fatal("the end record's append never read the lapsing clock")
			}
			if res := c.result(info.ID); res.Result == nil || res.Result.Partial {
				t.Fatalf("result = %+v, want the complete search", res.Result)
			}
			if !c.next(info.ID).Done {
				t.Fatal("GET next after the lost end record did not answer Done")
			}
		})
	}
}

// stallTracer blocks the first search-loop event emitted after it is
// armed until released, holding a session's plan back for as long as a
// test needs. Search events carry the session id in Workload; the serve
// layer's own events do not and pass through.
type stallTracer struct {
	armed   atomic.Bool
	stalled chan struct{}
	release chan struct{}
}

func (st *stallTracer) Emit(e telemetry.Event) {
	if e.Workload != "" && st.armed.CompareAndSwap(true, false) {
		close(st.stalled)
		<-st.release
	}
}

// TestObserveAcksPastPlanDeadline: on the inline path an observe whose
// plan misses the request deadline (here the client hung up before the
// server read its body) is still acknowledged. The advisor already holds
// the observation, so a 504 would leave the client a retry that can only
// meet 409. The observation is journaled alone, the response carries no
// next, and GET next collects the plan once it finishes.
func TestObserveAcksPastPlanDeadline(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := SessionRequest{Method: "augmented-bo", Seed: 7, MaxMeasurements: 6}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target).Result)

	for _, mode := range []string{"no-speculate", "fsync-always"} {
		t.Run(mode, func(t *testing.T) {
			stall := &stallTracer{stalled: make(chan struct{}), release: make(chan struct{})}
			cfg := Config{Tracer: stall, Warnf: t.Logf}
			dir := t.TempDir()
			var j *journal.Journal
			if mode == "no-speculate" {
				cfg.DisableSpeculation = true
			} else {
				if j, err = journal.Open(dir, journal.WithReplica("a")); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { j.Close() })
				cfg.Journal = j
			}
			s, c := newTestServer(t, cfg)
			// Registered after the server's Shutdown cleanup, so it runs
			// first: a held-back loop would block Shutdown's abort.
			release := sync.OnceFunc(func() { close(stall.release) })
			t.Cleanup(release)
			info := c.create(req)
			sug := c.next(info.ID)

			stall.armed.Store(true)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			hr := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+info.ID+"/observe",
				bytes.NewReader(mustJSON(t, measure(t, target, sug)))).WithContext(ctx)
			rr := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				s.ServeHTTP(rr, hr)
				close(served)
			}()
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Fatal("observe did not answer while its plan was held back")
			}
			select {
			case <-stall.stalled:
			case <-time.After(10 * time.Second):
				t.Fatal("the search loop never reached the held-back plan")
			}
			var resp ObserveResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); rr.Code != http.StatusOK || err != nil {
				t.Fatalf("observe past its deadline answered %d %s, want 200", rr.Code, strings.TrimSpace(rr.Body.String()))
			}
			if resp.Next != nil || resp.Step != 1 {
				t.Fatalf("observe past its deadline = %+v, want step 1 without next", resp)
			}
			if j != nil {
				path := filepath.Join(dir, shardName(journal.ShardOf(info.ID, j.Shards())))
				got := kindsSince(t, path, 0)
				if wantKinds := []journal.Kind{journal.KindCreate, journal.KindSuggest, journal.KindObserve}; !reflect.DeepEqual(got, wantKinds) {
					t.Fatalf("journal holds %v, want the observation journaled alone: %v", got, wantKinds)
				}
			}
			release()

			if got := mustJSON(t, c.run(info.ID, target).Result); !bytes.Equal(got, want) {
				t.Errorf("result diverged from the uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}
