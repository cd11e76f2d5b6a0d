package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
		// cap on long runs.
		s := New(Config{})
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
