package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/serve"
)

// This file is the multi-replica chaos/soak harness: many sessions
// pipelined across four real arrow-serve processes sharing one journal
// directory, one process SIGKILLed mid-traffic, survivors reclaiming
// its shard leases and adopting its sessions, with snapshots and
// concurrent shard compaction on the whole time. Invariants held at
// scale: zero acknowledged observations lost, sampled sessions finish
// with result and trace sub-objects byte-identical to journal-less
// reference runs, and the reclaim reports bound per-session recovery
// latency.
//
// The default run is the short mode that rides `go test` / make check
// (~120 sessions); `make soak` sets ARROW_SOAK_SESSIONS=10000 for the
// nightly 10k-session run.

// soakSessions picks the session count: the env override, or the short
// default.
func soakSessions() int {
	if v := os.Getenv("ARROW_SOAK_SESSIONS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 120
}

// soakRegistryMode switches the cluster topology: ARROW_SOAK_REGISTRY=1
// replaces the shared journal directory and its flock'd lease files
// with a network registry process, per-replica journal directories and
// heartbeat leases — the cross-host deployment, soaked on one host.
func soakRegistryMode() bool {
	switch os.Getenv("ARROW_SOAK_REGISTRY") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// soakCluster tracks the replica processes and which are still alive.
type soakCluster struct {
	procs []*chaosProc
	alive []atomic.Bool
	hc    *http.Client
}

// bases snapshots the base URLs of the live replicas.
func (sc *soakCluster) bases() []string {
	var out []string
	for i, p := range sc.procs {
		if sc.alive[i].Load() {
			out = append(out, p.base)
		}
	}
	return out
}

// errRetry is the sentinel a soak request returns when every replica
// answered "not mine" (421), "not yet adopted" (404), "over capacity"
// (429) or was unreachable — all transient during a kill/reclaim window.
var errRetry = fmt.Errorf("no replica could serve the request yet")

// tryEach fires the request at preferBase first, then every live
// replica, returning the first conclusive answer. 421/404/429 and
// connection errors are inconclusive: the session's shard may be
// mid-reclaim.
func (sc *soakCluster) tryEach(method, preferBase, path string, body []byte) (int, []byte, string, error) {
	order := sc.bases()
	if preferBase != "" {
		order = append([]string{preferBase}, order...)
	}
	for _, base := range order {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, "", err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := sc.hc.Do(req)
		if err != nil {
			continue // dead or dying replica
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		switch resp.StatusCode {
		case http.StatusMisdirectedRequest, http.StatusNotFound, http.StatusTooManyRequests:
			continue
		}
		return resp.StatusCode, data, base, nil
	}
	return 0, nil, "", errRetry
}

// request retries tryEach until a conclusive answer or the deadline.
func (sc *soakCluster) request(method, preferBase, path string, body []byte) (int, []byte, string, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		st, data, base, err := sc.tryEach(method, preferBase, path, body)
		if err == nil {
			return st, data, base, nil
		}
		if time.Now().After(deadline) {
			return 0, nil, "", fmt.Errorf("%s %s: %w", method, path, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// soakSession drives one session start to finish through the cluster,
// returning the final result body and the acknowledged observation
// count. Connection failures mid-kill are retried; an observe whose ack
// was lost on the wire shows up as a 409 on retry and still counts — it
// is journaled server-side, which is exactly what "acked" means here.
func soakSession(sc *soakCluster, req serve.SessionRequest, target arrow.Target) ([]byte, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	st, data, base, err := sc.request("POST", "", "/v1/sessions", body)
	if err != nil {
		return nil, 0, err
	}
	if st != http.StatusCreated {
		return nil, 0, fmt.Errorf("create: status %d: %s", st, data)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, 0, err
	}
	return driveSession(sc, info.ID, base, target, 0)
}

// driveSession finishes an already-created session through the cluster
// from wherever it stands — the session may have been created elsewhere
// and adopted since — returning the result body and the total acked
// observation count, starting from acked.
func driveSession(sc *soakCluster, id, base string, target arrow.Target, acked int) ([]byte, int, error) {
	for {
		st, data, b, err := sc.request("GET", base, "/v1/sessions/"+id+"/next", nil)
		if err != nil {
			return nil, acked, err
		}
		base = b
		if st != http.StatusOK {
			return nil, acked, fmt.Errorf("next %s: status %d: %s", id, st, data)
		}
		var sug arrow.Suggestion
		if err := json.Unmarshal(data, &sug); err != nil {
			return nil, acked, err
		}
		if sug.Done {
			break
		}
		out, merr := target.Measure(sug.Index)
		var oreq serve.ObserveRequest
		if merr != nil {
			oreq = serve.ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
		} else {
			oreq = serve.ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
		}
		obody, err := json.Marshal(oreq)
		if err != nil {
			return nil, acked, err
		}
		st, data, b, err = sc.request("POST", base, "/v1/sessions/"+id+"/observe", obody)
		if err != nil {
			return nil, acked, err
		}
		base = b
		switch st {
		case http.StatusOK, http.StatusConflict:
			// 409 = the previous delivery was journaled and acked but the
			// response was lost to the kill; the observation is in.
			acked++
		default:
			return nil, acked, fmt.Errorf("observe %s: status %d: %s", id, st, data)
		}
	}
	st, data, _, err := sc.request("GET", base, "/v1/sessions/"+id+"/result", nil)
	if err != nil {
		return nil, acked, err
	}
	if st != http.StatusOK {
		return nil, acked, fmt.Errorf("result %s: status %d: %s", id, st, data)
	}
	return data, acked, nil
}

// soakRequest builds the i-th session's config: a deterministic mix of
// methods with the stop rules left at their defaults, small budgets for
// throughput, and traces on the sampled sessions.
func soakRequest(i int, sampled bool) serve.SessionRequest {
	methods := []string{"random-search", "random-search", "naive-bo", "augmented-bo", "hybrid-bo"}
	return serve.SessionRequest{
		Method:          methods[i%len(methods)],
		Seed:            int64(1000 + i),
		MaxMeasurements: 6,
		Trace:           sampled,
	}
}

// resultSubObjects extracts the id-free projection of a result body —
// the recommendation and the wall-stripped trace — for byte comparison
// across servers that minted different session ids.
func resultSubObjects(t *testing.T, body []byte) []byte {
	t.Helper()
	var res serve.ResultResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("undecodable result %s: %v", body, err)
	}
	if res.Result == nil || res.Result.Partial {
		t.Fatalf("session did not finish cleanly: %s", body)
	}
	proj, err := json.Marshal(struct {
		Result any `json:"result"`
		Trace  any `json:"trace"`
	}{res.Result, res.Trace})
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// TestSoakMultiReplicaChaos is the soak harness entry point.
func TestSoakMultiReplicaChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness skipped in -short mode")
	}
	sessions := soakSessions()

	// The journal-less reference server for sampled byte comparisons.
	// Finished sessions leave the store only through the idle TTL sweep,
	// so a long soak needs a short TTL to keep the cap from filling.
	refBase, refShutdown := startServer(t, "-max-sessions", "512", "-session-ttl", "15s")
	defer refShutdown()

	registryMode := soakRegistryMode()
	parent := t.TempDir()
	dir := filepath.Join(parent, "journal")
	const replicas = 4
	sc := &soakCluster{
		alive: make([]atomic.Bool, replicas),
		hc:    &http.Client{Timeout: 60 * time.Second},
	}
	var regProc *chaosProc
	if registryMode {
		regProc = spawnServer(t,
			"-registry",
			"-registry-state", filepath.Join(parent, "registry.json"),
			"-lease-ttl", "2s",
		)
	}
	for i := 0; i < replicas; i++ {
		args := []string{
			"-fsync", "always",
			"-replica", fmt.Sprintf("soak-%d", i),
			"-claim-shards", "2",
			"-max-sessions", "512",
			"-session-ttl", "30s",
			"-snapshot-interval", "2",
			"-compact-interval", "250ms",
			"-compact-min-bytes", "1024",
			"-compact-min-dead-ratio", "0.05",
			"-reclaim-interval", "300ms",
		}
		if registryMode {
			// No shared filesystem: each replica journals into its own
			// directory and leases shards from the registry; the victim's
			// sessions are adopted by scanning its directory read-only.
			args = append(args,
				"-journal-dir", filepath.Join(parent, fmt.Sprintf("journal-%d", i)),
				"-registry-addr", regProc.base,
				"-heartbeat-interval", "250ms",
			)
		} else {
			args = append(args, "-journal-dir", dir)
		}
		p := spawnServer(t, args...)
		sc.procs = append(sc.procs, p)
		sc.alive[i].Store(true)
	}

	// The chaos controller: once a third of the sessions have finished,
	// SIGKILL one replica mid-traffic. Survivors reclaim its shards.
	var finished atomic.Int64
	var trafficDone atomic.Bool
	victim := rand.New(rand.NewSource(int64(sessions))).Intn(replicas)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for finished.Load() < int64(sessions/3) {
			if trafficDone.Load() {
				return // traffic collapsed before the kill threshold
			}
			time.Sleep(20 * time.Millisecond)
		}
		sc.alive[victim].Store(false)
		sc.procs[victim].kill9(t)
	}()

	// The traffic generators.
	workers := 12
	if sessions < workers {
		workers = sessions
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker target: measurements are pure functions of the
			// (workload, vm, trial) triple, but the shared handle keeps a
			// measurement counter that would race across workers.
			target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
			if err != nil {
				fail("worker target: %v", err)
				return
			}
			for i := range work {
				sampled := i%10 == 0
				req := soakRequest(i, sampled)
				body, acked, err := soakSession(sc, req, target)
				if err != nil {
					fail("session %d: %v", i, err)
					continue
				}
				var res serve.ResultResponse
				if err := json.Unmarshal(body, &res); err != nil {
					fail("session %d: undecodable result: %v", i, err)
					continue
				}
				if res.Result == nil || res.Result.Partial {
					fail("session %d did not finish cleanly: %s", i, body)
					continue
				}
				// Zero lost acked observations — and zero duplicated ones.
				if len(res.Result.Observations) != acked {
					fail("session %d: %d observations in the result, %d acked on the wire",
						i, len(res.Result.Observations), acked)
					continue
				}
				if sampled {
					refClient := &httpClient{t: t, base: refBase}
					refID := refClient.create(req)
					want := resultSubObjects(t, refClient.finish(refID, target))
					got := resultSubObjects(t, body)
					if !bytes.Equal(got, want) {
						fail("session %d: result diverged from journal-less reference:\n got %s\nwant %s", i, got, want)
						continue
					}
				}
				finished.Add(1)
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	trafficDone.Store(true)
	<-killed

	if len(failures) > 0 {
		max := len(failures)
		if max > 20 {
			max = 20
		}
		t.Fatalf("%d session failures, first %d:\n%s", len(failures), max, strings.Join(failures[:max], "\n"))
	}
	if got := finished.Load(); got != int64(sessions) {
		t.Fatalf("finished %d of %d sessions", got, sessions)
	}

	// The survivors' stdout carries the machine-readable half of the
	// story: reclaim reports for the victim's shards and compaction
	// stats lines from the concurrent compactor. The reclaim may trail
	// the traffic — in registry mode the victim's leases take a full
	// TTL to expire after the kill — so poll until it surfaces.
	var (
		claimed     map[int]bool
		compactions int
		worstP99    int64
	)
	collect := func() {
		claimed = map[int]bool{}
		compactions = 0
		worstP99 = 0
		for i, p := range sc.procs {
			if i == victim {
				continue
			}
			for _, line := range strings.Split(p.stdout.String(), "\n") {
				line = strings.TrimSpace(line)
				if !strings.HasPrefix(line, "{") {
					continue
				}
				var probe map[string]json.RawMessage
				if err := json.Unmarshal([]byte(line), &probe); err != nil {
					t.Fatalf("replica %d printed undecodable JSON %q: %v", i, line, err)
				}
				switch {
				case probe["claimed"] != nil:
					var rep serve.ReclaimReport
					if err := json.Unmarshal([]byte(line), &rep); err != nil {
						t.Fatalf("undecodable reclaim report %q: %v", line, err)
					}
					for _, shard := range rep.Claimed {
						claimed[shard] = true
					}
					if rep.RecoverP99Micros > worstP99 {
						worstP99 = rep.RecoverP99Micros
					}
				case probe["compacted"] != nil:
					compactions++
				}
			}
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		collect()
		if len(claimed) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(claimed) != 2 {
		t.Errorf("survivors reclaimed shards %v, want the victim's 2", claimed)
	}
	if compactions == 0 {
		t.Error("no shard was compacted during the soak")
	}
	// Snapshots every 2 observations bound per-session recovery: the
	// p99 over adopted sessions must stay far below a full cold replay
	// of the whole journal. The bound is deliberately loose — CI runs
	// this under the race detector.
	if worstP99 > 5_000_000 {
		t.Errorf("reclaim recovery p99 %dµs exceeds the 5s soak budget", worstP99)
	}

	for i, p := range sc.procs {
		if i != victim {
			p.terminate(t)
		}
	}
	if regProc != nil {
		regProc.terminate(t)
	}

	mode := "filesystem"
	if registryMode {
		mode = "registry"
	}
	writeSoakSummary(t, soakSummary{
		Mode:             mode,
		Sessions:         sessions,
		Replicas:         replicas,
		Victim:           victim,
		ClaimedShards:    sortedKeys(claimed),
		Compactions:      compactions,
		ReclaimP99Micros: worstP99,
		JournalBytes:     dirBytes(t, parent),
	})
}

// soakSummary is the machine-readable run record the nightly CI job
// uploads as an artifact: the journal's on-disk footprint after
// concurrent compaction and the worst per-session recovery p99 across
// every reclaim are the two numbers the recovery-time model predicts.
type soakSummary struct {
	Mode             string `json:"mode"`
	Sessions         int    `json:"sessions"`
	Replicas         int    `json:"replicas"`
	Victim           int    `json:"victim"`
	ClaimedShards    []int  `json:"claimed_shards"`
	Compactions      int    `json:"compactions"`
	ReclaimP99Micros int64  `json:"reclaim_p99_micros"`
	JournalBytes     int64  `json:"journal_bytes"`
}

// writeSoakSummary records the run summary at $ARROW_SOAK_OUT; unset
// (the default short run in make check) writes nothing.
func writeSoakSummary(t *testing.T, sum soakSummary) {
	out := os.Getenv("ARROW_SOAK_OUT")
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatalf("marshaling soak summary: %v", err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("writing soak summary: %v", err)
	}
	t.Logf("soak summary: %s", data)
}

// dirBytes totals the size of every file under dir.
func dirBytes(t *testing.T, dir string) int64 {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatalf("sizing journal dir: %v", err)
	}
	return total
}

// sortedKeys flattens a set of shard numbers into a sorted list.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
