package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	arrow "repro"
	"repro/internal/journal"
)

// benchCatalog builds a synthetic n-candidate catalog so one session can
// run to hundreds of observations (the built-in catalog has only 18).
func benchCatalog(n int) []arrow.Candidate {
	out := make([]arrow.Candidate, n)
	for i := range out {
		out[i] = arrow.Candidate{
			Name: fmt.Sprintf("vm-%03d", i),
			Features: []float64{
				float64(1 + i%64),        // cores
				float64(2 * (1 + i%48)),  // memory
				float64(1 + (i*7)%32),    // disk
				float64(1+(i*13)%10) / 4, // network
			},
		}
	}
	return out
}

// benchOutcome is the deterministic stand-in measurement for candidate
// i: recovery replays these bytes, so they only need to be pure in i.
func benchOutcome(i int) ObserveRequest {
	metrics := make([]float64, arrow.NumMetrics)
	for j := range metrics {
		metrics[j] = float64((i*31+j*17)%100) / 100
	}
	return ObserveRequest{
		Index:   i,
		TimeSec: 50 + float64((i*37)%101),
		CostUSD: 0.1 + float64(i%20)/40,
		Metrics: metrics,
	}
}

// benchRecoveryJournal drives one long naive-bo session — obs
// observations over a large custom catalog, checkpointed every interval
// accepted observations (0 disables snapshots) — into dir and abandons
// it live, the way a kill -9 would. Naive BO keeps the planning step
// affordable at 300 observations (the GP factor cache extends by one
// row per step; augmented-bo's pairwise training set would grow
// quadratically and turn one full replay into tens of minutes), while
// still paying a real surrogate fit per replayed step — exactly the
// cost snapshots exist to skip. Returns the session id.
func benchRecoveryJournal(b *testing.B, dir string, interval, obs int) string {
	b.Helper()
	j, err := journal.Open(dir, journal.WithReplica("bench"))
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Journal: j, SnapshotInterval: interval})
	var info SessionInfo
	req := SessionRequest{
		Method:          "naive-bo",
		Seed:            1,
		EIStopFraction:  -1, // disable the stop rule: the session must stay mid-flight
		MaxMeasurements: obs + 20,
		Candidates:      benchCatalog(obs + 40),
	}
	if st := benchDo(b, s, "POST", "/v1/sessions", req, &info); st != http.StatusCreated {
		b.Fatalf("create: status %d", st)
	}
	var sug arrow.Suggestion
	if st := benchDo(b, s, "GET", "/v1/sessions/"+info.ID+"/next", nil, &sug); st != http.StatusOK {
		b.Fatalf("next: status %d", st)
	}
	for i := 0; i < obs; i++ {
		if sug.Done {
			b.Fatalf("session finished after %d observations; the benchmark needs %d", i, obs)
		}
		var resp ObserveResponse
		if st := benchDo(b, s, "POST", "/v1/sessions/"+info.ID+"/observe", benchOutcome(sug.Index), &resp); st != http.StatusOK {
			b.Fatalf("observe %d: status %d", i, st)
		}
		sug = *resp.Next
	}
	// Shutdown flushes without journaling an end record: the session is
	// still live on disk, exactly the state a crash leaves behind.
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	return info.ID
}

// benchmarkRecover times Server.Recover over the journal of one
// 300-observation session. With snapshots the session restores from the
// latest watermark — the surrogate refits below it are skipped via the
// recorded resume script — so recovery cost is bounded by the snapshot
// interval; without them every observation replays through a full
// planning step from the chain head.
func benchmarkRecover(b *testing.B, interval, obs int) {
	dir := b.TempDir()
	benchRecoveryJournal(b, dir, interval, obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := journal.Open(dir, journal.WithReplica("bench"))
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Journal: j, SnapshotInterval: interval})
		report, err := s.Recover(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if report.Recovered != 1 || report.Observations != obs {
			b.Fatalf("recovered %d sessions / %d observations, want 1/%d", report.Recovered, report.Observations, obs)
		}
		if wantSnap := interval > 0; (report.SnapshotRestores == 1) != wantSnap {
			b.Fatalf("snapshot restores %d with interval %d", report.SnapshotRestores, interval)
		}
		b.StopTimer()
		if err := s.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkRecoverSnapshot: 300 observations, snapshot every 25 — the
// bounded-recovery path `make soak` exercises at scale.
func BenchmarkRecoverSnapshot(b *testing.B) { benchmarkRecover(b, 25, 300) }

// BenchmarkRecoverFullReplay: the same session without snapshots — the
// pre-PR9 recovery cost, linear in session length.
func BenchmarkRecoverFullReplay(b *testing.B) { benchmarkRecover(b, 0, 300) }
