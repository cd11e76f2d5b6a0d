package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
)

// finiteOutcome reports whether every value in out survives JSON.
func finiteOutcome(out arrow.Outcome) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(out.TimeSec) || !finite(out.CostUSD) {
		return false
	}
	for _, m := range out.Metrics {
		if !finite(m) {
			return false
		}
	}
	return true
}

// TestServeChaos is the serving layer's survival test: 64 concurrent
// sessions whose measuring clients see injected faults (transient
// failures reported as failed observations, corrupted outcomes passed
// through to the server's validation gate), with a graceful shutdown
// firing while half of them are mid-search. The server must not
// deadlock, every session must still return a result over HTTP, and
// every session whose pending suggestion the shutdown consumed must be
// a salvaged Partial. Run under -race, this also shakes the stepper's
// channel choreography and the store's locking.
func TestServeChaos(t *testing.T) {
	const sessions = 64

	s := New(Config{MaxSessions: sessions})
	hs := httptest.NewServer(s)
	defer hs.Close()
	defer s.Shutdown(context.Background())

	methods := []string{"naive-bo", "augmented-bo", "hybrid-bo", "random-search"}
	var (
		wg       sync.WaitGroup
		finished atomic.Int64 // sessions whose client saw Done (naturally or via the abort)
		// walked counts clients that walked away at the top of their loop,
		// mid-search: a final observe would have answered Done.
		walked      atomic.Int64
		shutdownNow = make(chan struct{})
	)
	ids := make([]string, sessions)
	// cutOff marks the sessions whose observe was answered 409: the
	// shutdown's abort consumed their pending suggestion.
	cutOff := make([]atomic.Bool, sessions)

	// Create every session up front so the later shutdown races only
	// the next/observe stepping, never session creation.
	setup := newClient(t, hs)
	for i := range sessions {
		ids[i] = setup.create(SessionRequest{
			Method:          methods[i%len(methods)],
			Seed:            int64(i),
			MaxMeasurements: 6,
		}).ID
	}

	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(t, hs)

			base, err := arrow.NewSimulatedTarget("als/spark2.1/medium", int64(i%5))
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			target := arrow.NewChaosTarget(base, arrow.ChaosConfig{
				Seed:              int64(i),
				TransientRate:     0.2,
				CorruptRate:       0.15,
				PermanentFailures: []int{i % base.NumCandidates()},
			})
			info := SessionInfo{ID: ids[i]}

			for {
				select {
				case <-shutdownNow:
					walked.Add(1)
					return
				default:
				}
				var sug arrow.Suggestion
				if st := c.do("GET", "/v1/sessions/"+info.ID+"/next", nil, &sug); st != http.StatusOK {
					t.Errorf("session %s: next status %d", info.ID, st)
					return
				}
				if sug.Done {
					finished.Add(1)
					return
				}
				out, merr := target.Measure(sug.Index)
				var req ObserveRequest
				switch {
				case merr != nil:
					req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
				case !finiteOutcome(out):
					// JSON cannot carry NaN/Inf, so a real client reports
					// a non-finite measurement as a failure; finite
					// corruptions (negative time/cost) go through and the
					// server's validation gate quarantines them.
					req = ObserveRequest{Index: sug.Index, Failed: true, Reason: "non-finite measurement"}
				default:
					req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
				}
				var oresp ObserveResponse
				st := c.do("POST", "/v1/sessions/"+info.ID+"/observe", req, &oresp)
				if st == http.StatusBadRequest && !req.Failed {
					// A malformed payload (e.g. a truncated metric vector)
					// is rejected without consuming the suggestion; the
					// client re-reports it as a failed measurement.
					req = ObserveRequest{Index: sug.Index, Failed: true, Reason: "malformed measurement payload"}
					oresp = ObserveResponse{}
					st = c.do("POST", "/v1/sessions/"+info.ID+"/observe", req, &oresp)
				}
				switch st {
				case http.StatusOK:
					// Next carries the follow-up, which the loop's GET next
					// returns again.
					if oresp.Next != nil && oresp.Next.Done {
						finished.Add(1)
						return
					}
				case http.StatusConflict:
					// The shutdown aborted the session between our next
					// and observe; the salvage owns it now.
					cutOff[i].Store(true)
					return
				default:
					t.Errorf("session %s: observe status %d", info.ID, st)
					return
				}
			}
		}()
	}

	// Let roughly half the sessions finish, then pull the plug on the
	// rest. The sleep only shapes the finished/flushed mix; correctness
	// does not depend on it.
	time.Sleep(1500 * time.Millisecond)
	close(shutdownNow)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	conflicted := 0
	for i := range cutOff {
		if cutOff[i].Load() {
			conflicted++
		}
	}
	t.Logf("chaos: %d finished, %d walked away, %d cut off", finished.Load(), walked.Load(), conflicted)
	if finished.Load()+walked.Load()+int64(conflicted) != sessions {
		t.Fatalf("%d finished + %d walked away + %d cut off != %d sessions", finished.Load(), walked.Load(), conflicted, sessions)
	}

	// Every session must still answer over HTTP with a coherent result.
	// Nothing may hang or 500.
	c := newClient(t, hs)
	complete, partial := 0, 0
	for i, id := range ids {
		if id == "" {
			t.Fatal("a session never got an id")
		}
		var res ResultResponse
		if st := c.do("GET", "/v1/sessions/"+id+"/result", nil, &res); st != http.StatusOK {
			t.Errorf("session %s: result status %d after shutdown", id, st)
			continue
		}
		if res.Result == nil {
			t.Errorf("session %s: no result after shutdown", id)
			continue
		}
		if res.Result.Partial {
			partial++
		} else {
			complete++
			// A 409 on observe means the abort consumed the pending
			// suggestion, so the search cannot have finished. (A walk-away
			// or a client that saw Done may hold either kind: next reports
			// Done for aborted sessions too.)
			if cutOff[i].Load() {
				t.Errorf("session %s: observe answered 409, yet its result is complete", id)
			}
		}
	}
	if complete+partial != sessions {
		t.Errorf("%d complete + %d partial != %d", complete, partial, sessions)
	}
	t.Logf("chaos: %d complete, %d partial results", complete, partial)
}

// TestShutdownAfterFinalObserveKeepsCompleteResult: the final observe
// answers Done, and a client that walks away after it leaves nothing for
// Shutdown's abort to salvage: the result stays complete.
func TestShutdownAfterFinalObserveKeepsCompleteResult(t *testing.T) {
	s, c := newTestServer(t, Config{})
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	info := c.create(SessionRequest{Method: "random-search", Seed: 3, MaxMeasurements: 2})
	for range 2 {
		sug := c.next(info.ID)
		if sug.Done {
			t.Fatal("session finished before its second observe")
		}
		out, merr := target.Measure(sug.Index)
		if merr != nil {
			t.Fatal(merr)
		}
		resp := c.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})
		if resp.Next == nil || resp.Next.Done != (resp.Step == 2) {
			t.Fatalf("observe %d answered next %+v; want Done on the final observe only", resp.Step, resp.Next)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := c.result(info.ID)
	if res.Result == nil || res.Result.Partial || len(res.Result.Observations) != 2 {
		t.Fatalf("result after shutdown = %+v, want the complete two-observation search", res.Result)
	}
}
