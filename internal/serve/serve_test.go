package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/telemetry"
)

// client is a minimal typed client over one test server.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newClient(t *testing.T, srv *httptest.Server) *client {
	return &client{t: t, base: srv.URL, hc: srv.Client()}
}

// do issues a request and decodes the response into out (when non-nil),
// returning the status code. Error bodies decode into out only when it
// is an *ErrorResponse.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding %d response: %v", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// create opens a session and fails the test on any non-201.
func (c *client) create(req SessionRequest) SessionInfo {
	c.t.Helper()
	var info SessionInfo
	if st := c.do("POST", "/v1/sessions", req, &info); st != http.StatusCreated {
		c.t.Fatalf("create: status %d", st)
	}
	return info
}

// next fetches the current suggestion.
func (c *client) next(id string) arrow.Suggestion {
	c.t.Helper()
	var sug arrow.Suggestion
	if st := c.do("GET", "/v1/sessions/"+id+"/next", nil, &sug); st != http.StatusOK {
		c.t.Fatalf("next: status %d", st)
	}
	return sug
}

// observe delivers a measurement and returns the follow-up suggestion.
func (c *client) observe(id string, req ObserveRequest) ObserveResponse {
	c.t.Helper()
	var resp ObserveResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/observe", req, &resp); st != http.StatusOK {
		c.t.Fatalf("observe: status %d", st)
	}
	return resp
}

// followUp resolves the suggestion after an observe: directly from the
// response when the observe planned it, via GET next when a batch
// suggestion was still outstanding and the observe left the plan to it.
func (c *client) followUp(id string, resp ObserveResponse) arrow.Suggestion {
	c.t.Helper()
	if resp.Next != nil {
		return *resp.Next
	}
	return c.next(id)
}

// result fetches the recommendation.
func (c *client) result(id string) ResultResponse {
	c.t.Helper()
	var res ResultResponse
	if st := c.do("GET", "/v1/sessions/"+id+"/result", nil, &res); st != http.StatusOK {
		c.t.Fatalf("result: status %d", st)
	}
	return res
}

// run plays a full session against the simulated target, exactly as a
// measuring client would, and returns the result response.
func (c *client) run(id string, target arrow.Target) ResultResponse {
	c.t.Helper()
	sug := c.next(id)
	for !sug.Done {
		out, merr := target.Measure(sug.Index)
		var req ObserveRequest
		if merr != nil {
			req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
		} else {
			req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
		}
		sug = c.followUp(id, c.observe(id, req))
	}
	return c.result(id)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, newClient(t, hs)
}

// TestServeMatchesBatchSearch is the HTTP half of the
// advisor-equivalence acceptance test: a fixed-seed session driven over
// real HTTP must reproduce the in-process Search result and the
// wall-stripped trace for every method.
func TestServeMatchesBatchSearch(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, method := range []string{"naive-bo", "augmented-bo", "hybrid-bo", "random-search"} {
		t.Run(method, func(t *testing.T) {
			target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
			if err != nil {
				t.Fatal(err)
			}
			rec := arrow.NewTraceRecorder()
			req := SessionRequest{Method: method, Seed: 42, Trace: true}
			opt, _, err := BuildOptimizer(&req, arrow.WithTracer(rec))
			if err != nil {
				t.Fatal(err)
			}
			want, err := opt.Search(target)
			if err != nil {
				t.Fatalf("batch Search: %v", err)
			}

			sess := c.create(SessionRequest{Method: method, Seed: 42, Trace: true})
			res := c.run(sess.ID, target)
			if !res.Done || res.Result == nil {
				t.Fatalf("result = %+v, want done with a result", res)
			}
			if !reflect.DeepEqual(res.Result, want) {
				t.Errorf("HTTP result diverges from batch:\n http: %+v\nbatch: %+v", res.Result, want)
			}

			wantEvents := rec.Events()
			if len(res.Trace) != len(wantEvents) {
				t.Fatalf("trace length: HTTP %d events, batch %d", len(res.Trace), len(wantEvents))
			}
			for i := range wantEvents {
				w := wantEvents[i].StripWall()
				g := res.Trace[i]
				// The served trace is session-stamped; strip the stamp
				// before the deterministic comparison.
				g.Workload = w.Workload
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("trace diverges at event %d:\n http: %+v\nbatch: %+v", i, g, w)
				}
			}
		})
	}
}

func TestServeSessionInfoAndList(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info := c.create(SessionRequest{Method: "augmented", Objective: "product", Seed: 9})
	if info.Method != "augmented-bo" || info.Objective != "time-cost-product" {
		t.Errorf("info = %+v", info)
	}
	if info.NumCandidates != len(arrow.CatalogCandidates()) {
		t.Errorf("candidates = %d", info.NumCandidates)
	}
	c.create(SessionRequest{Method: "random", Seed: 1})

	var list []SessionInfo
	if st := c.do("GET", "/v1/sessions", nil, &list); st != http.StatusOK {
		t.Fatalf("list: status %d", st)
	}
	if len(list) != 2 || list[0].ID >= list[1].ID {
		t.Errorf("list = %+v, want 2 sessions in id order", list)
	}
}

func TestServeCustomCatalog(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info := c.create(SessionRequest{
		Method: "random", Seed: 1, MaxMeasurements: 2,
		Candidates: []arrow.Candidate{
			{Name: "small", Features: []float64{1, 4}},
			{Name: "large", Features: []float64{8, 64}},
		},
	})
	if info.NumCandidates != 2 {
		t.Fatalf("candidates = %d, want 2", info.NumCandidates)
	}
	sug := c.next(info.ID)
	if sug.Name != "small" && sug.Name != "large" {
		t.Errorf("suggestion %+v not from the custom catalog", sug)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var errResp ErrorResponse

	cases := []struct {
		name string
		body any
	}{
		{"unknown method", SessionRequest{Method: "simulated-annealing"}},
		{"unknown objective", SessionRequest{Method: "naive", Objective: "vibes"}},
		{"unknown kernel", SessionRequest{Method: "naive", Kernel: "linear"}},
		{"ragged candidates", SessionRequest{Method: "naive", Candidates: []arrow.Candidate{
			{Name: "a", Features: []float64{1}},
			{Name: "b", Features: []float64{1, 2}},
		}}},
		{"unknown field", map[string]any{"method": "naive", "temperature": 0.7}},
	}
	for _, tc := range cases {
		if st := c.do("POST", "/v1/sessions", tc.body, &errResp); st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, st, errResp.Error)
		}
	}
}

func TestServeUnknownSession404(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var errResp ErrorResponse
	if st := c.do("GET", "/v1/sessions/s-999999/next", nil, &errResp); st != http.StatusNotFound {
		t.Errorf("unknown next: status %d, want 404", st)
	}
	if st := c.do("GET", "/v1/sessions/s-999999/result", nil, &errResp); st != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", st)
	}
}

func TestServeObserveConflicts(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info := c.create(SessionRequest{Method: "random", Seed: 5})
	var errResp ErrorResponse

	// Observe before any Next: nothing pending.
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Index: 0, TimeSec: 1, CostUSD: 1}, &errResp); st != http.StatusConflict {
		t.Errorf("observe before next: status %d, want 409", st)
	}

	sug := c.next(info.ID)

	// Index mismatch.
	wrong := (sug.Index + 1) % info.NumCandidates
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Index: wrong, TimeSec: 1, CostUSD: 1}, &errResp); st != http.StatusConflict {
		t.Errorf("mismatched observe: status %d, want 409", st)
	}
	if !strings.Contains(errResp.Error, "pending") {
		t.Errorf("mismatch error %q not explanatory", errResp.Error)
	}

	// A valid observation, then a duplicate of it.
	c.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: 1, CostUSD: 1})
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Index: sug.Index, TimeSec: 1, CostUSD: 1}, &errResp); st != http.StatusConflict {
		t.Errorf("duplicate observe: status %d, want 409", st)
	}
}

func TestServeObserveAfterStop(t *testing.T) {
	_, c := newTestServer(t, Config{})
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	info := c.create(SessionRequest{Method: "random", Seed: 5, MaxMeasurements: 3})
	c.run(info.ID, target)

	var errResp ErrorResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Index: 0, TimeSec: 1, CostUSD: 1}, &errResp); st != http.StatusConflict {
		t.Errorf("observe after stop: status %d, want 409", st)
	}
	// next keeps reporting Done, result keeps answering.
	if sug := c.next(info.ID); !sug.Done {
		t.Errorf("next after stop = %+v, want Done", sug)
	}
	if res := c.result(info.ID); !res.Done || res.Result == nil || res.Result.Partial {
		t.Errorf("result after stop = %+v", res)
	}
}

func TestServeResultBeforeDone409(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info := c.create(SessionRequest{Method: "random", Seed: 5})
	var errResp ErrorResponse
	if st := c.do("GET", "/v1/sessions/"+info.ID+"/result", nil, &errResp); st != http.StatusConflict {
		t.Errorf("early result: status %d, want 409", st)
	}
}

func TestServeConcurrentNextOneSuggestion(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info := c.create(SessionRequest{Method: "augmented", Seed: 11})

	const callers = 8
	got := make([]arrow.Suggestion, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.next(info.ID)
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d saw %+v, caller 0 saw %+v", i, got[i], got[0])
		}
	}
}

func TestServeDeleteSalvagesPartial(t *testing.T) {
	_, c := newTestServer(t, Config{})
	target, err := arrow.NewSimulatedTarget("kmeans/spark2.1/medium", 2)
	if err != nil {
		t.Fatal(err)
	}
	info := c.create(SessionRequest{Method: "augmented", Seed: 3})
	sug := c.next(info.ID)
	out, _ := target.Measure(sug.Index)
	c.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})

	var res ResultResponse
	if st := c.do("DELETE", "/v1/sessions/"+info.ID, nil, &res); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if res.Result == nil || !res.Result.Partial || res.Result.NumMeasurements() != 1 {
		t.Fatalf("delete result = %+v, want Partial with 1 observation", res)
	}
	if res.SearchError == "" {
		t.Error("delete result lost the abort cause")
	}
	// The session stays addressable after the abort; result repeats.
	if res2 := c.result(info.ID); res2.Result == nil || !res2.Result.Partial {
		t.Errorf("result after delete = %+v", res2)
	}
}

func TestServeTTLEvictionMidSearch(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	s, c := newTestServer(t, Config{SessionTTL: time.Minute, Now: now})
	info := c.create(SessionRequest{Method: "random", Seed: 5})
	sug := c.next(info.ID)
	c.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: 1, CostUSD: 1})

	// Idle past the TTL; the next lookup's sweep evicts mid-search.
	advance(2 * time.Minute)
	var errResp ErrorResponse
	if st := c.do("GET", "/v1/sessions/"+info.ID+"/next", nil, &errResp); st != http.StatusGone {
		t.Fatalf("evicted next: status %d, want 410 (%s)", st, errResp.Error)
	}
	if st := c.do("GET", "/v1/sessions/"+info.ID+"/result", nil, &errResp); st != http.StatusGone {
		t.Errorf("evicted result: status %d, want 410", st)
	}
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/observe",
		ObserveRequest{Index: 0, TimeSec: 1, CostUSD: 1}, &errResp); st != http.StatusGone {
		t.Errorf("evicted observe: status %d, want 410", st)
	}
	if s.SessionCount() != 0 {
		t.Errorf("%d sessions live after eviction", s.SessionCount())
	}
}

func TestServeSessionCapReturns429(t *testing.T) {
	_, c := newTestServer(t, Config{MaxSessions: 2, SessionTTL: -1})
	c.create(SessionRequest{Method: "random", Seed: 1})
	c.create(SessionRequest{Method: "random", Seed: 2})
	var errResp ErrorResponse
	if st := c.do("POST", "/v1/sessions", SessionRequest{Method: "random", Seed: 3}, &errResp); st != http.StatusTooManyRequests {
		t.Fatalf("create past cap: status %d, want 429 (%s)", st, errResp.Error)
	}
}

func TestServeShutdownFlushesToPartial(t *testing.T) {
	s, c := newTestServer(t, Config{})
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Three mid-flight sessions with one observation each.
	ids := make([]string, 3)
	for i := range ids {
		info := c.create(SessionRequest{Method: "augmented", Seed: int64(i + 1)})
		ids[i] = info.ID
		sug := c.next(info.ID)
		out, _ := target.Measure(sug.Index)
		c.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// New sessions are refused while results stay readable over HTTP —
	// the graceful-shutdown salvage path.
	var errResp ErrorResponse
	if st := c.do("POST", "/v1/sessions", SessionRequest{Method: "random", Seed: 9}, &errResp); st != http.StatusServiceUnavailable {
		t.Errorf("create during shutdown: status %d, want 503", st)
	}
	for _, id := range ids {
		res := c.result(id)
		if res.Result == nil || !res.Result.Partial {
			t.Errorf("session %s result = %+v, want salvaged Partial", id, res)
		}
		if res.Result != nil && res.Result.NumMeasurements() != 1 {
			t.Errorf("session %s salvaged %d observations, want 1", id, res.Result.NumMeasurements())
		}
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestServeHealthAndMetrics(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	c.create(SessionRequest{Method: "random", Seed: 1})

	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if st := c.do("GET", "/healthz", nil, &health); st != http.StatusOK {
		t.Fatalf("healthz: status %d", st)
	}
	if health.Status != "ok" || health.Sessions != 1 {
		t.Errorf("health = %+v", health)
	}

	resp, err := c.hc.Get(c.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "sessions: 1 live") {
		t.Errorf("metricsz missing session line:\n%s", body)
	}
	if !strings.Contains(string(body), string(telemetry.KindSessionCreate)) {
		t.Errorf("metricsz missing %s counter:\n%s", telemetry.KindSessionCreate, body)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := c.do("GET", "/healthz", nil, &health); st != http.StatusOK || health.Status != "shutting-down" {
		t.Errorf("health during shutdown = %+v (status %d)", health, st)
	}
}

func TestServeAuditStream(t *testing.T) {
	rec := telemetry.NewRecorder()
	_, c := newTestServer(t, Config{Tracer: rec})
	info := c.create(SessionRequest{Method: "random", Seed: 5, MaxMeasurements: 1})
	sug := c.next(info.ID)
	c.followUp(info.ID, c.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: 1, CostUSD: 1}))
	c.result(info.ID)

	var kinds []telemetry.Kind
	sessionStamped := 0
	for _, e := range rec.Events() {
		kinds = append(kinds, e.Kind)
		if e.Workload == info.ID {
			sessionStamped++
		}
	}
	want := map[telemetry.Kind]bool{
		telemetry.KindSessionCreate: false,
		telemetry.KindSessionEnd:    false,
		telemetry.KindHTTPRequest:   false,
		telemetry.KindSearchStart:   false,
		telemetry.KindSearchEnd:     false,
	}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("audit stream missing %s events: %v", k, kinds)
		}
	}
	if sessionStamped == 0 {
		t.Error("no audit events stamped with the session id")
	}
}

func TestServeTraceOffByDefault(t *testing.T) {
	_, c := newTestServer(t, Config{})
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	info := c.create(SessionRequest{Method: "random", Seed: 5, MaxMeasurements: 2})
	res := c.run(info.ID, target)
	if len(res.Trace) != 0 {
		t.Errorf("untraced session returned %d trace events", len(res.Trace))
	}
}

func TestServeObserveFailureQuarantines(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info := c.create(SessionRequest{Method: "random", Seed: 7, MaxMeasurements: 4})
	failures := 0
	sug := c.next(info.ID)
	for !sug.Done {
		var req ObserveRequest
		if failures == 0 {
			failures++
			req = ObserveRequest{Index: sug.Index, Failed: true, Reason: "spot instance reclaimed"}
		} else {
			req = ObserveRequest{Index: sug.Index, TimeSec: float64(sug.Index + 1), CostUSD: 1}
		}
		sug = c.followUp(info.ID, c.observe(info.ID, req))
	}
	res := c.result(info.ID)
	if res.Result == nil {
		t.Fatal("no result")
	}
	if len(res.Result.Failures) != 1 || !strings.Contains(res.Result.Failures[0].Reason, "spot instance reclaimed") {
		t.Errorf("failures = %+v, want the reported reason", res.Result.Failures)
	}
}

// nextBatch asks for k concurrent suggestions and fails on any non-200.
func (c *client) nextBatch(id string, k int) []arrow.Suggestion {
	c.t.Helper()
	var resp NextBatchResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/nextbatch", NextBatchRequest{K: k}, &resp); st != http.StatusOK {
		c.t.Fatalf("nextbatch: status %d", st)
	}
	return resp.Suggestions
}

// TestServeNextBatch covers the /nextbatch wire semantics: bad batch
// sizes are 400s, oversized requests clamp to the server's MaxBatch,
// reissues are idempotent, suggestions may be observed in any order, and
// a finished session answers with a single Done suggestion.
func TestServeNextBatch(t *testing.T) {
	_, c := newTestServer(t, Config{MaxBatch: 3})
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	info := c.create(SessionRequest{Method: "augmented-bo", Seed: 3})

	var errResp ErrorResponse
	for _, k := range []int{0, -2, MaxBatchK + 1} {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/nextbatch", NextBatchRequest{K: k}, &errResp); st != http.StatusBadRequest {
			t.Errorf("k=%d: status %d, want 400 (%s)", k, st, errResp.Error)
		}
	}
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/nextbatch", []byte(`{`), &errResp); st != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", st)
	}

	// A legal k past the server's MaxBatch clamps instead of failing.
	sugs := c.nextBatch(info.ID, MaxBatchK)
	if len(sugs) == 0 || len(sugs) > 3 {
		t.Fatalf("got %d suggestions, want 1..3 (k clamped to MaxBatch)", len(sugs))
	}
	// Idempotent: a retry returns the same suggestions, same Seq ordinals.
	if again := c.nextBatch(info.ID, len(sugs)); !reflect.DeepEqual(sugs, again) {
		t.Errorf("reissued batch diverged:\n first %+v\n again %+v", sugs, again)
	}

	// Observe the batch out of order — last suggestion first.
	for i := len(sugs) - 1; i >= 0; i-- {
		out, merr := target.Measure(sugs[i].Index)
		if merr != nil {
			c.observe(info.ID, ObserveRequest{Index: sugs[i].Index, Failed: true, Reason: merr.Error()})
			continue
		}
		c.observe(info.ID, ObserveRequest{Index: sugs[i].Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})
	}

	// Drive the rest of the session one suggestion at a time.
	sug := c.next(info.ID)
	for !sug.Done {
		out, merr := target.Measure(sug.Index)
		var req ObserveRequest
		if merr != nil {
			req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
		} else {
			req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
		}
		sug = c.followUp(info.ID, c.observe(info.ID, req))
	}

	// A done session answers nextbatch with a single Done suggestion.
	done := c.nextBatch(info.ID, 3)
	if len(done) != 1 || !done[0].Done {
		t.Errorf("done batch = %+v, want a single Done suggestion", done)
	}
	res := c.result(info.ID)
	if res.Result == nil || res.Result.Partial {
		t.Fatalf("batch-driven session did not finish cleanly: %+v", res.Result)
	}
}

// TestServeBatchAudit: a batch handout is recorded in the audit stream
// once, naming its session, k and served size.
func TestServeBatchAudit(t *testing.T) {
	rec := telemetry.NewRecorder()
	_, c := newTestServer(t, Config{Tracer: rec})
	info := c.create(SessionRequest{Method: "random-search", Seed: 5, MaxMeasurements: 10})
	sugs := c.nextBatch(info.ID, 2)
	if len(sugs) != 2 {
		t.Fatalf("batch of %d suggestions, want 2", len(sugs))
	}
	var batch []telemetry.Event
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindSuggestBatch {
			batch = append(batch, e)
		}
	}
	if len(batch) != 1 || batch[0].Name != info.ID || batch[0].Step != 2 || int(batch[0].Value) != len(sugs) {
		t.Errorf("suggest_batch events %+v, want one for %s with k=2 served=%d", batch, info.ID, len(sugs))
	}
}
