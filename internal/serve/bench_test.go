package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	arrow "repro"
)

// benchDo drives one request straight through ServeHTTP (no network), so
// the benchmark measures the handler path: body decode, session work,
// response encode.
func benchDo(b *testing.B, s *Server, method, path string, body, out any) int {
	b.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			b.Fatalf("%s %s: decoding %d response: %v", method, path, rec.Code, err)
		}
	}
	return rec.Code
}

// BenchmarkServeSession measures one full advisor session over the HTTP
// handlers — create, then the observe/next loop a measuring client
// drives — against the simulated target. B/op and allocs/op cover the
// whole serving path: request decode, planning, response encode.
func BenchmarkServeSession(b *testing.B) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh server per session: ended sessions stay in the store
		// until TTL eviction, so one shared server would hit the session
		// cap on long runs. Speculation is disabled so the bench keeps
		// measuring the synchronous observe→plan→next loop, comparable
		// across releases; BenchmarkServeNextPipelined measures the
		// default, early-acknowledging path.
		s := New(Config{DisableSpeculation: true})
		var info SessionInfo
		if st := benchDo(b, s, "POST", "/v1/sessions",
			SessionRequest{Method: "augmented-bo", Seed: int64(42 + i)}, &info); st != http.StatusCreated {
			b.Fatalf("create: status %d", st)
		}
		var sug arrow.Suggestion
		if st := benchDo(b, s, "GET", "/v1/sessions/"+info.ID+"/next", nil, &sug); st != http.StatusOK {
			b.Fatalf("next: status %d", st)
		}
		for !sug.Done {
			out, merr := target.Measure(sug.Index)
			var req ObserveRequest
			if merr != nil {
				req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
			} else {
				req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
			}
			var resp ObserveResponse
			if st := benchDo(b, s, "POST", "/v1/sessions/"+info.ID+"/observe", req, &resp); st != http.StatusOK {
				b.Fatalf("observe: status %d", st)
			}
			sug = *resp.Next
		}
		if st := benchDo(b, s, "DELETE", "/v1/sessions/"+info.ID, nil, nil); st != http.StatusOK {
			b.Fatalf("delete: status %d", st)
		}
		s.Shutdown(context.Background())
	}
}

// BenchmarkServeNextPipelined measures the default, early-acknowledging
// path: the same advisor session as BenchmarkServeSession, but with
// speculation on and a simulated measurement gap between the observe ack
// and the following GET next — while the "client" measures, the
// session's search loop plans the follow-up, so the GET collects a
// finished plan. The p50-ns / p99-ns extra
// metrics time every pipelined GET next; compare against
// BenchmarkAdvisorNext's p99 (the raw planning latency an unpipelined
// client pays on the wire). Two nexts per session are reported apart:
// the first (cold-p50-ns — nothing precedes it for speculation to hide,
// it always pays the session-open plan) and the Done one (end-p50-ns —
// session teardown, not suggestion serving).
func BenchmarkServeNextPipelined(b *testing.B) {
	// A real measurement takes milliseconds to minutes; 2ms is enough of
	// a stand-in for the search loop's plan (sub-millisecond per step,
	// per BenchmarkAdvisorNext) to finish before the client comes back.
	const measurementGap = 2 * time.Millisecond
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		b.Fatal(err)
	}
	var lat, cold, end []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		var info SessionInfo
		if st := benchDo(b, s, "POST", "/v1/sessions",
			SessionRequest{Method: "augmented-bo", Seed: int64(42 + i)}, &info); st != http.StatusCreated {
			b.Fatalf("create: status %d", st)
		}
		next := "/v1/sessions/" + info.ID + "/next"
		// timedNext measures only ServeHTTP — the server's latency — with
		// request construction and response decode outside the window,
		// like a client timing the wire.
		timedNext := func() (arrow.Suggestion, time.Duration) {
			req := httptest.NewRequest("GET", next, bytes.NewReader(nil))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			s.ServeHTTP(rec, req)
			d := time.Since(t0)
			if rec.Code != http.StatusOK {
				b.Fatalf("next: status %d", rec.Code)
			}
			var sug arrow.Suggestion
			if err := json.Unmarshal(rec.Body.Bytes(), &sug); err != nil {
				b.Fatalf("next: decoding response: %v", err)
			}
			return sug, d
		}
		sug, d := timedNext()
		cold = append(cold, d)
		for !sug.Done {
			out, merr := target.Measure(sug.Index)
			var req ObserveRequest
			if merr != nil {
				req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
			} else {
				req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
			}
			var resp ObserveResponse
			if st := benchDo(b, s, "POST", "/v1/sessions/"+info.ID+"/observe", req, &resp); st != http.StatusOK {
				b.Fatalf("observe: status %d", st)
			}
			time.Sleep(measurementGap)
			sug, d = timedNext()
			if sug.Done {
				// The Done next is session teardown — it finalizes the
				// result and ends the session, work speculation must not
				// do ahead of a client-visible request — not suggestion
				// serving; it gets its own metric.
				end = append(end, d)
			} else {
				lat = append(lat, d)
			}
		}
		if st := benchDo(b, s, "DELETE", "/v1/sessions/"+info.ID, nil, nil); st != http.StatusOK {
			b.Fatalf("delete: status %d", st)
		}
		s.Shutdown(context.Background())
	}
	b.StopTimer()
	quantile := func(sample []time.Duration, q float64) float64 {
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		idx := int(q * float64(len(sample)-1))
		return float64(sample[idx].Nanoseconds())
	}
	b.ReportMetric(quantile(lat, 0.50), "p50-ns")
	b.ReportMetric(quantile(lat, 0.99), "p99-ns")
	b.ReportMetric(quantile(cold, 0.50), "cold-p50-ns")
	b.ReportMetric(quantile(end, 0.50), "end-p50-ns")
	b.ReportMetric(float64(len(lat)+len(cold)+len(end))/float64(b.N), "nexts/session")
}

// BenchmarkServeJSONPlumbing isolates the wire layer: an observe round
// trip against an already-finished session, whose handler work is a
// decode, a state check and an encode — no planning. This is the
// pooled-buffer fast path.
func BenchmarkServeJSONPlumbing(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	var info SessionInfo
	if st := benchDo(b, s, "POST", "/v1/sessions",
		SessionRequest{Method: "random-search", Seed: 7, MaxMeasurements: 1}, &info); st != http.StatusCreated {
		b.Fatalf("create: status %d", st)
	}
	var sug arrow.Suggestion
	if st := benchDo(b, s, "GET", "/v1/sessions/"+info.ID+"/next", nil, &sug); st != http.StatusOK {
		b.Fatalf("next: status %d", st)
	}
	body, err := json.Marshal(ObserveRequest{Index: sug.Index, TimeSec: 1, CostUSD: 1})
	if err != nil {
		b.Fatal(err)
	}
	path := "/v1/sessions/" + info.ID + "/observe"
	rd := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		req := httptest.NewRequest("POST", path, rd)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusConflict, http.StatusGone:
		default:
			b.Fatalf("observe: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
