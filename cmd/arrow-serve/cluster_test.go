package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/registry"
	"repro/internal/serve"
)

// This file is the fast registry-mode cluster smoke that rides `go
// test` / make check: one process hosts the shard registry, three
// replicas — each with its OWN journal directory, no shared filesystem
// — lease shards from it over HTTP. It exercises the two failover
// paths end to end across real processes: SIGKILL one replica and let
// heartbeat expiry hand its shards (and its in-flight sessions, adopted
// from its directory) to the survivors with bumped lease epochs; then
// SIGTERM a -drain-migrate replica and check it streamed its live
// sessions to a successor before exiting. Two more tests run the
// self-hosted topology, where the registry host journals and serves
// sessions itself, and a rolling drain that meets a peer which has just
// exited. The nightly registry-mode soak scales the same topology to
// thousands of sessions.

// registryState fetches the lease table through the hosting process's
// serving port.
func registryState(t *testing.T, base string) *registry.StateResponse {
	t.Helper()
	resp, err := http.Get(base + "/registry/v1/state")
	if err != nil {
		t.Fatalf("registry state: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registry state: status %d", resp.StatusCode)
	}
	var st registry.StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("undecodable registry state: %v", err)
	}
	return &st
}

// waitForState polls the registry until cond holds, returning the state
// that satisfied it.
func waitForState(t *testing.T, base, desc string, cond func(*registry.StateResponse) bool) *registry.StateResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := registryState(t, base)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			dump, _ := json.Marshal(st)
			t.Fatalf("registry never reached %q: %s", desc, dump)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func containsShard(shards []int, shard int) bool {
	for _, s := range shards {
		if s == shard {
			return true
		}
	}
	return false
}

func TestRegistryClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke skipped in -short mode")
	}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	regProc := spawnServer(t,
		"-registry",
		"-registry-state", filepath.Join(parent, "registry.json"),
		"-lease-ttl", "2s",
	)

	const replicas = 3
	sc := &soakCluster{
		alive: make([]atomic.Bool, replicas),
		hc:    &http.Client{Timeout: 60 * time.Second},
	}
	for i := 0; i < replicas; i++ {
		args := []string{
			"-journal-dir", filepath.Join(parent, fmt.Sprintf("journal-%d", i)),
			"-fsync", "always",
			"-replica", fmt.Sprintf("smoke-%d", i),
			"-registry-addr", regProc.base,
			"-claim-shards", "3",
			"-snapshot-interval", "2",
			"-heartbeat-interval", "200ms",
			"-reclaim-interval", "200ms",
			"-session-ttl", "30s",
		}
		if i == replicas-1 {
			args = append(args, "-drain-migrate")
		}
		p := spawnServer(t, args...)
		sc.procs = append(sc.procs, p)
		sc.alive[i].Store(true)
	}

	// Boot order fixes the claim split: 3 + 3 + 2 of the 8 shards.
	heldBy := map[string][]int{}
	epochs := map[int]uint64{}
	pre := registryState(t, regProc.base)
	for _, l := range pre.Leases {
		if l.Holder == "" {
			t.Fatalf("shard %d unclaimed after cluster boot: %+v", l.Shard, pre.Leases)
		}
		heldBy[l.Holder] = append(heldBy[l.Holder], l.Shard)
		epochs[l.Shard] = l.Epoch
	}
	if len(heldBy["smoke-0"]) != 3 || len(heldBy["smoke-1"]) != 3 || len(heldBy["smoke-2"]) != 2 {
		t.Fatalf("unexpected claim split: %v", heldBy)
	}

	// Healthy-cluster traffic: a couple of sessions through the
	// retrying cluster client, observations acked == observed.
	for i := 0; i < 2; i++ {
		body, acked, err := soakSession(sc, soakRequest(i, false), target)
		if err != nil {
			t.Fatalf("healthy session %d: %v", i, err)
		}
		var res serve.ResultResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("healthy session %d: undecodable result: %v", i, err)
		}
		if res.Result == nil || res.Result.Partial || len(res.Result.Observations) != acked {
			t.Fatalf("healthy session %d: %d acked, result %s", i, acked, body)
		}
	}

	// Three sessions pinned to the victim (a create answered by a
	// replica lives on that replica's shards), each two observations
	// in. DeltaThreshold -1 disarms the early stop so they are still
	// mid-flight when the process dies.
	longReq := func(seed int64) serve.SessionRequest {
		return serve.SessionRequest{Method: "augmented-bo", Seed: seed, DeltaThreshold: -1, MaxMeasurements: 8}
	}
	vc := &httpClient{t: t, base: sc.procs[0].base}
	var victimIDs []string
	for k := 0; k < 3; k++ {
		id := vc.create(longReq(int64(100 + k)))
		if got := vc.step(id, target, 2); got != 2 {
			t.Fatalf("session %s acked %d of 2 pre-kill observations", id, got)
		}
		victimIDs = append(victimIDs, id)
	}
	sc.alive[0].Store(false)
	sc.procs[0].kill9(t)

	// No release, no goodbye: the shards move by heartbeat expiry
	// alone, and every regrant mints a strictly larger epoch — the
	// fence that keeps a paused old owner from acking into them.
	post := waitForState(t, regProc.base, "victim's shards reassigned", func(st *registry.StateResponse) bool {
		for _, l := range st.Leases {
			if l.Holder == "smoke-0" || l.Holder == "" {
				return false
			}
		}
		return true
	})
	for _, l := range post.Leases {
		if containsShard(heldBy["smoke-0"], l.Shard) && l.Epoch <= epochs[l.Shard] {
			t.Errorf("reclaimed shard %d kept epoch %d (was %d)", l.Shard, l.Epoch, epochs[l.Shard])
		}
	}

	// The victim's sessions finish through the survivors, who adopted
	// them by scanning the victim's journal directory: zero lost acked
	// observations, no duplicates.
	for _, id := range victimIDs {
		body, total, err := driveSession(sc, id, "", target, 2)
		if err != nil {
			t.Fatalf("finishing adopted session %s: %v", id, err)
		}
		var res serve.ResultResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("adopted session %s: undecodable result: %v", id, err)
		}
		if res.Result == nil || res.Result.Partial {
			t.Fatalf("adopted session %s did not finish cleanly: %s", id, body)
		}
		if len(res.Result.Observations) != total {
			t.Errorf("adopted session %s: %d observations in the result, %d acked on the wire",
				id, len(res.Result.Observations), total)
		}
	}

	// The survivors' stdout reclaim reports must cover exactly the
	// victim's shards.
	claimed := map[int]bool{}
	for i := 1; i < replicas; i++ {
		for _, line := range strings.Split(sc.procs[i].stdout.String(), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var probe map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &probe); err != nil || probe["claimed"] == nil {
				continue
			}
			var rep serve.ReclaimReport
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				t.Fatalf("undecodable reclaim report %q: %v", line, err)
			}
			for _, shard := range rep.Claimed {
				claimed[shard] = true
			}
		}
	}
	if len(claimed) != len(heldBy["smoke-0"]) {
		t.Errorf("survivors reclaimed shards %v, want the victim's %v", sortedKeys(claimed), heldBy["smoke-0"])
	}

	// Graceful exit second: a session mid-flight on the -drain-migrate
	// replica survives a SIGTERM by being streamed to a successor. Wait
	// for the dead victim to drop out of the live set first, so the
	// drain goes straight to "smoke-1": the drainer tries live peers in
	// name order, and a freshly-dead "smoke-0" would sort ahead of it.
	waitForState(t, regProc.base, "victim aged out of the live set", func(st *registry.StateResponse) bool {
		for _, r := range st.Replicas {
			if r.Replica == "smoke-0" && r.Live {
				return false
			}
		}
		return true
	})
	dc := &httpClient{t: t, base: sc.procs[2].base}
	drainID := dc.create(longReq(999))
	if got := dc.step(drainID, target, 2); got != 2 {
		t.Fatalf("drain session acked %d of 2 observations", got)
	}
	sc.alive[2].Store(false)
	sc.procs[2].terminate(t)

	var mig *serve.MigrateReport
	for _, line := range strings.Split(sc.procs[2].stdout.String(), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"successor"`) {
			continue
		}
		mig = &serve.MigrateReport{}
		if err := json.Unmarshal([]byte(line), mig); err != nil {
			t.Fatalf("undecodable migration report %q: %v", line, err)
		}
	}
	if mig == nil {
		t.Fatalf("draining replica printed no migration report:\nstdout: %s\nstderr: %s",
			sc.procs[2].stdout.String(), sc.procs[2].stderr.String())
	}
	if mig.Successor != sc.procs[1].base {
		t.Errorf("drained to %q, want the surviving replica %q", mig.Successor, sc.procs[1].base)
	}
	if mig.Sessions != 1 || mig.Observations != 2 || len(mig.Damaged) != 0 {
		t.Errorf("migration report moved %d sessions / %d observations (damage %v), want 1/2 clean",
			mig.Sessions, mig.Observations, mig.Damaged)
	}

	// The migrated session finishes on the successor, nothing lost.
	body, total, err := driveSession(sc, drainID, sc.procs[1].base, target, 2)
	if err != nil {
		t.Fatalf("finishing migrated session: %v", err)
	}
	var res serve.ResultResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("migrated session: undecodable result: %v", err)
	}
	if res.Result == nil || res.Result.Partial || len(res.Result.Observations) != total {
		t.Errorf("migrated session: %d acked, result %s", total, body)
	}

	sc.procs[1].terminate(t)
	regProc.terminate(t)
}

// clusterSession is one session a topology test drives across
// replicas: its request, its id and its acknowledged observations.
type clusterSession struct {
	req   serve.SessionRequest
	id    string
	acked int
}

// openMidFlight creates n sessions on the replica at base and acks two
// observations of each. DeltaThreshold -1 disarms the early stop, so
// they are still mid-flight when their shards move.
func openMidFlight(t *testing.T, base string, target arrow.Target, seed int64, n int) []*clusterSession {
	t.Helper()
	c := &httpClient{t: t, base: base}
	var out []*clusterSession
	for k := 0; k < n; k++ {
		req := serve.SessionRequest{Method: "augmented-bo", Seed: seed + int64(k), DeltaThreshold: -1, MaxMeasurements: 8, Trace: true}
		id := c.create(req)
		if got := c.step(id, target, 2); got != 2 {
			t.Fatalf("session %s acked %d of 2 observations", id, got)
		}
		out = append(out, &clusterSession{req: req, id: id, acked: 2})
	}
	return out
}

// finishIdentical finishes every session on the replica at base and
// checks that none lost an acknowledged observation and that each
// result and trace is byte-identical to a journal-less reference run of
// the same request.
func finishIdentical(t *testing.T, base string, target arrow.Target, sessions []*clusterSession) {
	t.Helper()
	refBase, refShutdown := startServer(t)
	defer refShutdown()
	ref := &httpClient{t: t, base: refBase}
	sc := &soakCluster{procs: []*chaosProc{{base: base}}, alive: make([]atomic.Bool, 1), hc: &http.Client{Timeout: 60 * time.Second}}
	sc.alive[0].Store(true)
	for _, s := range sessions {
		body, total, err := driveSession(sc, s.id, base, target, s.acked)
		if err != nil {
			t.Fatalf("finishing session %s: %v", s.id, err)
		}
		var res serve.ResultResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("session %s: undecodable result: %v", s.id, err)
		}
		if res.Result == nil || len(res.Result.Observations) != total {
			t.Errorf("session %s: %d observations acked on the wire, result %s", s.id, total, body)
		}
		want := resultSubObjects(t, ref.finish(ref.create(s.req), target))
		if got := resultSubObjects(t, body); !bytes.Equal(got, want) {
			t.Errorf("session %s diverged from the journal-less reference:\n got %s\nwant %s", s.id, got, want)
		}
	}
}

// stdoutReports decodes every JSON line of the process's stdout that
// carries the key.
func stdoutReports[T any](t *testing.T, p *chaosProc, key string) []T {
	t.Helper()
	var out []T
	for _, line := range strings.Split(p.stdout.String(), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"`+key+`"`) {
			continue
		}
		var rep T
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("undecodable %s report %q: %v", key, line, err)
		}
		out = append(out, rep)
	}
	return out
}

// leaseSplit maps each holder to its shards, sorted.
func leaseSplit(st *registry.StateResponse) map[string][]int {
	held := map[string][]int{}
	for _, l := range st.Leases {
		held[l.Holder] = append(held[l.Holder], l.Shard)
	}
	return held
}

// TestSelfHostedRegistryCluster runs the documented self-hosted
// topology: the process hosting the registry also journals and serves
// sessions from its own shards, leasing them through the registry in
// its own process. A peer is SIGKILLed and the host reclaims its shards
// through that registry; a -drain-migrate peer then streams its shards
// to the host, whose takeover transfers the leases through it too.
// Every session finishes on the host with no acknowledged observation
// lost, byte-identical to a journal-less reference.
func TestSelfHostedRegistryCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke skipped in -short mode")
	}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	replicaArgs := func(name string, claim int, extra ...string) []string {
		return append([]string{
			"-journal-dir", filepath.Join(parent, "journal-"+name),
			"-replica", name,
			"-claim-shards", fmt.Sprint(claim),
			"-fsync", "always",
			"-snapshot-interval", "2",
			"-heartbeat-interval", "200ms",
			"-session-ttl", "30s",
		}, extra...)
	}
	// Only the host reclaims, so the victim's shards can go nowhere else.
	host := spawnServer(t, replicaArgs("host", 4,
		"-registry",
		"-registry-state", filepath.Join(parent, "registry.json"),
		"-lease-ttl", "2s",
		"-reclaim-interval", "200ms",
	)...)
	victim := spawnServer(t, replicaArgs("peer-victim", 2, "-registry-addr", host.base)...)
	drainer := spawnServer(t, replicaArgs("peer-drain", 2, "-registry-addr", host.base, "-drain-migrate")...)

	pre := registryState(t, host.base)
	held := leaseSplit(pre)
	if len(held["host"]) != 4 || len(held["peer-victim"]) != 2 || len(held["peer-drain"]) != 2 {
		t.Fatalf("unexpected claim split: %v", held)
	}
	sessions := openMidFlight(t, host.base, target, 100, 2)
	sessions = append(sessions, openMidFlight(t, victim.base, target, 200, 2)...)
	sessions = append(sessions, openMidFlight(t, drainer.base, target, 300, 2)...)

	// The victim's grants lapse and the host's reclaim takes them from
	// its own registry, each with a bumped epoch.
	victim.kill9(t)
	post := waitForState(t, host.base, "victim's shards reclaimed by the host", func(st *registry.StateResponse) bool {
		h := leaseSplit(st)
		return len(h["host"]) == 6 && len(h["peer-drain"]) == 2
	})
	for _, l := range post.Leases {
		if containsShard(held["peer-victim"], l.Shard) && l.Epoch <= pre.Leases[l.Shard].Epoch {
			t.Errorf("reclaimed shard %d kept epoch %d (was %d)", l.Shard, l.Epoch, pre.Leases[l.Shard].Epoch)
		}
	}
	// The reclaim report follows the lease change once the adopted
	// sessions have replayed.
	var claimed []int
	for deadline := time.Now().Add(30 * time.Second); ; {
		set := map[int]bool{}
		for _, rep := range stdoutReports[serve.ReclaimReport](t, host, "claimed") {
			for _, shard := range rep.Claimed {
				set[shard] = true
			}
		}
		claimed = sortedKeys(set)
		if len(claimed) >= len(held["peer-victim"]) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if fmt.Sprint(claimed) != fmt.Sprint(held["peer-victim"]) {
		t.Errorf("host reclaimed shards %v, want the victim's %v", claimed, held["peer-victim"])
	}

	// The drainer's successor is the host: its takeover transfers each
	// lease through its own registry before adopting the stream.
	drainer.terminate(t)
	migs := stdoutReports[serve.MigrateReport](t, drainer, "successor")
	if len(migs) != 1 {
		t.Fatalf("drainer printed %d migration reports, want 1:\nstdout: %s\nstderr: %s",
			len(migs), drainer.stdout.String(), drainer.stderr.String())
	}
	mig := migs[0]
	if mig.Successor != host.base || fmt.Sprint(mig.Shards) != fmt.Sprint(held["peer-drain"]) ||
		mig.Sessions != 2 || mig.Observations != 4 || len(mig.Damaged) != 0 {
		t.Errorf("migration report %+v, want shards %v with 2 sessions / 4 observations to %s",
			mig, held["peer-drain"], host.base)
	}
	final := registryState(t, host.base)
	if h := leaseSplit(final); len(h["host"]) != final.Shards {
		t.Errorf("host holds %v of %d shards after the drain", h["host"], final.Shards)
	}
	for _, l := range final.Leases {
		if containsShard(held["peer-drain"], l.Shard) && l.Epoch <= pre.Leases[l.Shard].Epoch {
			t.Errorf("transferred shard %d kept epoch %d (was %d)", l.Shard, l.Epoch, pre.Leases[l.Shard].Epoch)
		}
	}

	finishIdentical(t, host.base, target, sessions)
	host.terminate(t)
}

// TestDrainSkipsExitedPeer is the rolling-drain regression. A replica
// reads live for two lease TTLs after it was last heard from, so when
// r1 drains to r2 and exits and r2 is stopped right after, r1 still
// heads r2's successor list. r2's stream to r1's closed port is
// refused; r2 must go on to r3 and move every shard it holds, r1's
// included, instead of leaving them to lease expiry — which loses the
// sessions wherever the survivor cannot read r2's journal directory.
func TestDrainSkipsExitedPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke skipped in -short mode")
	}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	regProc := spawnServer(t, "-registry", "-lease-ttl", "2s")
	var r []*chaosProc
	for _, name := range []string{"r1", "r2", "r3"} {
		r = append(r, spawnServer(t,
			"-journal-dir", filepath.Join(parent, "journal-"+name),
			"-replica", name,
			"-registry-addr", regProc.base,
			"-claim-shards", "3",
			"-drain-migrate",
			"-fsync", "always",
			"-snapshot-interval", "2",
			"-heartbeat-interval", "200ms",
			"-session-ttl", "30s",
		))
	}
	held := leaseSplit(registryState(t, regProc.base))
	if len(held["r1"]) != 3 || len(held["r2"]) != 3 || len(held["r3"]) != 2 {
		t.Fatalf("unexpected claim split: %v", held)
	}
	sessions := openMidFlight(t, r[0].base, target, 100, 2)
	sessions = append(sessions, openMidFlight(t, r[1].base, target, 200, 2)...)

	r[0].terminate(t)
	st := registryState(t, regProc.base)
	if h := leaseSplit(st); len(h["r2"]) != 6 {
		t.Fatalf("r1 did not drain to r2: leases %v\nr1 stderr: %s", h, r[0].stderr.String())
	}
	for _, info := range st.Replicas {
		if info.Replica == "r1" && !info.Live {
			t.Fatalf("r1 aged out of the live set before r2's drain, so the drain cannot meet its closed port: %+v", info)
		}
	}
	want := leaseSplit(st)["r2"]

	r[1].terminate(t)
	moved := map[int]bool{}
	sessionsMoved, obsMoved := 0, 0
	for _, mig := range stdoutReports[serve.MigrateReport](t, r[1], "successor") {
		if mig.Successor != r[2].base {
			t.Errorf("r2 drained shards %v to %s, want r3 at %s", mig.Shards, mig.Successor, r[2].base)
		}
		for _, shard := range mig.Shards {
			moved[shard] = true
		}
		sessionsMoved += mig.Sessions
		obsMoved += mig.Observations
	}
	if got := sortedKeys(moved); fmt.Sprint(got) != fmt.Sprint(want) || sessionsMoved != 4 || obsMoved != 8 {
		t.Fatalf("r2 moved shards %v (%d sessions, %d observations), want %v (4 sessions, 8 observations)\nr2 stderr: %s",
			got, sessionsMoved, obsMoved, want, r[1].stderr.String())
	}

	finishIdentical(t, r[2].base, target, sessions)
	r[2].terminate(t)
	regProc.terminate(t)
}
