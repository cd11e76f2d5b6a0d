package main

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The four client routes of an advisor session, in session order.
var routes = []string{"create", "next", "observe", "result"}

// routeOf maps an http_request event's route pattern onto its route name
// ("" for routes the benchmark never calls).
func routeOf(pattern string) string {
	switch pattern {
	case "POST /v1/sessions":
		return "create"
	case "GET /v1/sessions/{id}/next":
		return "next"
	case "POST /v1/sessions/{id}/observe":
		return "observe"
	case "GET /v1/sessions/{id}/result":
		return "result"
	}
	return ""
}

// handled is one request as the server timed it.
type handled struct {
	route string
	dur   time.Duration
}

// layerTracer is the traced run's telemetry sink, attached through
// serve.Config.Tracer, study.WithTracer or arrow.WithTracer. It keeps
// only what the per-layer metrics need from the events the program
// already emits: handling time per route and per session, surrogate-fit
// wall time and refit disposition per model, and a count per event kind.
type layerTracer struct {
	mu          sync.Mutex
	events      int64
	kinds       map[telemetry.Kind]int64
	statuses    map[int]int64
	routes      map[string][]time.Duration
	sessions    map[string][]handled
	fits        map[string][]time.Duration
	incremental int64
}

func newLayerTracer() *layerTracer {
	t := &layerTracer{}
	t.reset()
	return t
}

// reset forgets everything recorded so far (the warm-up's events).
func (t *layerTracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = 0
	t.kinds = make(map[telemetry.Kind]int64)
	t.statuses = make(map[int]int64)
	t.routes = make(map[string][]time.Duration)
	t.sessions = make(map[string][]handled)
	t.fits = make(map[string][]time.Duration)
	t.incremental = 0
}

// Emit implements telemetry.Tracer.
func (t *layerTracer) Emit(e telemetry.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	t.kinds[e.Kind]++
	if e.Wall == nil {
		return
	}
	d := time.Duration(e.Wall.DurationNS)
	switch e.Kind {
	case telemetry.KindHTTPRequest:
		t.statuses[int(e.Value)]++
		route := routeOf(e.Detail)
		if route == "" {
			return
		}
		t.routes[route] = append(t.routes[route], d)
		if e.Name != "" {
			t.sessions[e.Name] = append(t.sessions[e.Name], handled{route, d})
		}
	case telemetry.KindSurrogateFit:
		t.fits[e.Detail] = append(t.fits[e.Detail], d)
		if e.Wall.Refit == "incremental" {
			t.incremental++
		}
	}
}

// allFits returns every surrogate-fit duration, whatever the model.
func (t *layerTracer) allFits() []time.Duration {
	var out []time.Duration
	for _, ds := range t.fits {
		out = append(out, ds...)
	}
	return out
}
