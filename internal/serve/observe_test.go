package serve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/journal"
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

// TestObserveCarriesNextWithoutSync: observe plans the follow-up and
// returns it as next under any fsync policy, and without a journal.
// Under fsync never the observe journals the observation followed by
// the suggestion (or the end record), and the client's GET next returns
// the same suggestion without journaling anything.
func TestObserveCarriesNextWithoutSync(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"fsync-never", "no-journal"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Warnf: t.Logf}
			dir := t.TempDir()
			var j *journal.Journal
			if mode == "fsync-never" {
				if j, err = journal.Open(dir, journal.WithReplica("a"), journal.WithSync(journal.SyncNever)); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { j.Close() })
				cfg.Journal = j
			}
			_, c := newTestServer(t, cfg)
			info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 4})
			var path string
			if j != nil {
				path = filepath.Join(dir, shardName(journal.ShardOf(info.ID, j.Shards())))
			}
			steps := 0
			for sug := c.next(info.ID); !sug.Done; steps++ {
				var before map[string]int64
				if j != nil {
					before = shardSizes(t, dir)
				}
				resp := c.observe(info.ID, measure(t, target, sug))
				if resp.Next == nil {
					t.Fatalf("step %d: observe acknowledged without next", steps+1)
				}
				if j != nil {
					want := []journal.Kind{journal.KindObserve, journal.KindSuggest}
					if resp.Next.Done {
						want[1] = journal.KindEnd
					}
					if got := kindsSince(t, path, before[path]); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: observe journaled %v, want %v", steps+1, got, want)
					}
					before = shardSizes(t, dir)
				}
				if got := c.next(info.ID); got != *resp.Next {
					t.Fatalf("step %d: GET next = %+v, want the observe's next %+v", steps+1, got, *resp.Next)
				}
				if j != nil && !reflect.DeepEqual(shardSizes(t, dir), before) {
					t.Fatalf("step %d: GET next journaled a record", steps+1)
				}
				sug = *resp.Next
			}
			if steps != 4 {
				t.Fatalf("session took %d steps, want its budget of 4", steps)
			}
			if res := c.result(info.ID); res.Result == nil || res.Result.Partial {
				t.Fatalf("result = %+v, want the complete search", res.Result)
			}
		})
	}
}

// TestObserveDefersNextWhileBatchOutstanding: an observe returns its
// follow-up only once every suggestion the session served has been
// observed. While a batch's other suggestions are outstanding the batch
// has journaled them, so the observe is acknowledged without next and
// writes its observation alone; the batch's last observe carries next,
// journaled in its write. The outstanding count survives a crash: the
// batch is finished on a recovered server.
func TestObserveDefersNextWhileBatchOutstanding(t *testing.T) {
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
// served and its result reachable. The final observe journals the end
// record itself, so the session here is recovered from a journal that
// lost that record: its last observation replays, and the next request
// finds the search finished. The journal's clock lapses the lease for
// exactly the end record's Append: each request's two shard fences read
// the clock first.
func TestDoneSurvivesLostEndRecord(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, endpoint := range []string{"next", "nextbatch"} {
		t.Run(endpoint, func(t *testing.T) {
			dir := t.TempDir()
			var reads, lapseAt atomic.Int32
			open := func() *journal.Journal {
				j, err := journal.Open(dir, journal.WithReplica("a"), journal.WithSync(journal.SyncNever),
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
				return j
			}
			j := open()
			_, c := newTestServer(t, Config{Journal: j, Warnf: t.Logf})
			info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 2})
			for sug := c.next(info.ID); !sug.Done; {
				sug = *c.observe(info.ID, measure(t, target, sug)).Next
			}
			j.Close()
			path := filepath.Join(dir, shardName(journal.ShardOf(info.ID, j.Shards())))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
			if rec, err := journal.DecodeLine(data[cut : len(data)-1]); err != nil || rec.Kind != journal.KindEnd {
				t.Fatalf("last journaled record = %+v, %v; want the end record", rec, err)
			}
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s, c := newTestServer(t, Config{Journal: open(), Warnf: t.Logf})
			if _, err := s.Recover(context.Background()); err != nil {
				t.Fatal(err)
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
