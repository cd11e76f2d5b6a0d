package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	arrow "repro"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveSpec is one serve workload: the server configured as arrow-serve
// would be for the flags named in the comments, and its session mix.
type serveSpec struct {
	name             string
	sync             journal.Sync  // -fsync
	snapshotInterval int           // -snapshot-interval
	maxSessions      int           // -max-sessions
	sessionTTL       time.Duration // -session-ttl
	// restart adds the restart phase: graceful shutdown, reopen, Recover,
	// then finish the abandoned sessions on the recovered server.
	restart bool
	inputs  func(seed int64) (*planner, error)
}

// The store keeps ended sessions in its table until the TTL, and every
// lookup sweeps the whole table, so a default server (cap 256, TTL 30m)
// answers 429 once 256 sessions of compressed-time traffic have run.
// Both workloads raise the cap past what any run creates. serve-durable
// keeps the default TTL: its abandoned sessions must stay live until the
// restart phase, and its table grows through the run as on a busy
// server. serve-plan's ended sessions each hold their surrogate state
// (about 0.4 MB), so a 2 s TTL bounds its table to the last few hundred
// sessions; no live session idles that long.
const benchMaxSessions = 1 << 16

var serveDurable = serveSpec{
	name:             "serve-durable",
	sync:             journal.SyncAlways,
	snapshotInterval: 4,
	maxSessions:      benchMaxSessions,
	sessionTTL:       -1,
	restart:          true,
	inputs:           durableInputs,
}

var servePlan = serveSpec{
	name:        "serve-plan",
	sync:        journal.SyncNever,
	maxSessions: benchMaxSessions,
	sessionTTL:  2 * time.Second,
	inputs:      planInputs,
}

const (
	// Each pass brings the server up setupWarm times untimed, so the
	// process's one-time costs (first listener, first journal, code page
	// faults) stay out of setup_s, then setupReps times timed; setup_s is
	// the median of the timed ones.
	setupWarm = 3
	setupReps = 15
	// warmup runs traffic before the timed window, so heap growth,
	// connection set-up and first-touch page faults stay out of it.
	warmup = time.Second
	// appendSample caps the records the journal probe re-appends.
	appendSample = 4000
	// decodeSample caps the bodies each decode probe times.
	decodeSample = 2000
)

// stack is one running server: journal, serve.Server and HTTP listener.
type stack struct {
	jnl         *journal.Journal
	srv         *serve.Server
	hs          *http.Server
	base        string
	served      chan error
	recovered   *serve.RecoveryReport
	recoverTime time.Duration
}

// bringUp opens the journal in dir, builds and recovers the server and
// starts serving it on a fresh 127.0.0.1 port. Journal and server
// warnings count as failures.
func (sp serveSpec) bringUp(dir string, tracer telemetry.Tracer, tl *tally) (*stack, error) {
	warnf := func(format string, args ...any) { tl.fail("journal warning: "+format, args...) }
	jnl, err := journal.Open(dir, journal.WithSync(sp.sync), journal.WithReplica("e2ebench"), journal.WithWarnf(warnf))
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		MaxSessions:      sp.maxSessions,
		SessionTTL:       sp.sessionTTL,
		Tracer:           tracer,
		Journal:          jnl,
		SnapshotInterval: sp.snapshotInterval,
		Warnf:            warnf,
	})
	t0 := time.Now()
	rep, err := srv.Recover(context.Background())
	recoverTime := time.Since(t0)
	if err != nil {
		jnl.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jnl.Close()
		return nil, err
	}
	st := &stack{
		jnl: jnl, srv: srv, hs: &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1),
		recovered: rep, recoverTime: recoverTime,
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	return st, nil
}

// stop shuts the stack down the way arrow-serve does on SIGTERM: flush
// the sessions (journaling nothing, so live ones recover), drain the
// listener, close the journal. It returns once the listener has exited.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ferr := st.srv.Shutdown(ctx)
	herr := st.hs.Shutdown(ctx)
	if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(ferr, herr, st.jnl.Close())
}

// client is one closed-loop load generator with one keep-alive
// connection. It records the round trip of every successful request.
type client struct {
	hc   *http.Client
	base string
	lat  map[string][]time.Duration
	// suggestions counts next responses that carried a suggestion.
	suggestions int64
	// Traced passes also log every request for pairing with the server's
	// handling time, and keep a sample of the observe bodies sent.
	traced   bool
	wire     []wired
	observes [][]byte
}

// wired is one request as the client timed it.
type wired struct {
	sid, route string
	rtt        time.Duration
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, lat: make(map[string][]time.Duration)}
}

// resetStats forgets the warm-up's measurements.
func (c *client) resetStats() {
	c.lat = make(map[string][]time.Duration)
	c.suggestions = 0
	c.wire = nil
	c.observes = nil
}

// call sends one request and decodes the answer into out. Any status but
// want is an error.
func (c *client) call(route, sid, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	c.lat[route] = append(c.lat[route], rtt)
	if c.traced {
		c.wire = append(c.wire, wired{sid, route, rtt})
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// sessionRun is one session as the client drove it.
type sessionRun struct {
	plan      *sessionPlan
	id        string
	observed  int
	abandoned bool
	// done is when the client finished driving it, from the window's
	// start.
	done time.Duration
	// result is the served Result, re-encoded canonically.
	result []byte
}

// runSession drives one session from create to result (or to its
// abandonment). A failed request ends the session and counts as failed.
func (c *client) runSession(sp *sessionPlan, tl *tally) *sessionRun {
	s := &sessionRun{plan: sp}
	var info serve.SessionInfo
	if err := c.call("create", "", http.MethodPost, "/v1/sessions", sp.body, http.StatusCreated, &info); err != nil {
		tl.fail("session %d: %v", sp.index, err)
		return nil
	}
	tl.ok()
	s.id = info.ID
	if !c.advance(s, false, tl) {
		return nil
	}
	if s.abandoned || c.finish(s, tl) {
		return s
	}
	return nil
}

// advance runs the next/observe loop until the session is done or, for
// a session that is to be abandoned and has not been resumed, until it
// reaches its abandonment point.
func (c *client) advance(s *sessionRun, resumed bool, tl *tally) bool {
	path := "/v1/sessions/" + s.id
	for {
		var sug arrow.Suggestion
		if err := c.call("next", s.id, http.MethodGet, path+"/next", nil, http.StatusOK, &sug); err != nil {
			tl.fail("session %d: %v", s.plan.index, err)
			return false
		}
		tl.ok()
		if sug.Done {
			return true
		}
		c.suggestions++
		if sug.Index < 0 || sug.Index >= len(s.plan.table.out) {
			tl.fail("session %d: suggested candidate %d out of range", s.plan.index, sug.Index)
			return false
		}
		body, err := s.plan.table.observeBody(sug.Index)
		if err != nil {
			tl.fail("session %d: encoding observe: %v", s.plan.index, err)
			return false
		}
		if c.traced && len(c.observes) < decodeSample {
			c.observes = append(c.observes, body)
		}
		if err := c.call("observe", s.id, http.MethodPost, path+"/observe", body, http.StatusOK, nil); err != nil {
			tl.fail("session %d: %v", s.plan.index, err)
			return false
		}
		tl.ok()
		s.observed++
		if !resumed && s.plan.abandonAfter > 0 && s.observed == s.plan.abandonAfter {
			s.abandoned = true
			return true
		}
	}
}

// finish fetches the result of a done session.
func (c *client) finish(s *sessionRun, tl *tally) bool {
	var rr serve.ResultResponse
	if err := c.call("result", s.id, http.MethodGet, "/v1/sessions/"+s.id+"/result", nil, http.StatusOK, &rr); err != nil {
		tl.fail("session %d: %v", s.plan.index, err)
		return false
	}
	if rr.Result == nil || rr.Result.Partial || rr.SearchError != "" {
		tl.fail("session %d: result is partial or missing (%s)", s.plan.index, rr.SearchError)
		return false
	}
	res, err := json.Marshal(rr.Result)
	if err != nil {
		tl.fail("session %d: re-encoding result: %v", s.plan.index, err)
		return false
	}
	tl.ok()
	s.result = res
	return true
}

// traffic runs the clients' closed loops, each starting a new session
// as soon as its previous one ends, until the window closes; sessions in
// flight then run to their end. It returns the sessions completed or
// abandoned.
func traffic(clients []*client, pl *planner, next *atomic.Int64, window time.Duration, tl *tally) ([]*sessionRun, error) {
	start := time.Now()
	deadline := start.Add(window)
	var (
		mu   sync.Mutex
		runs []*sessionRun
		errs = make([]error, len(clients))
		wg   sync.WaitGroup
	)
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sp, err := pl.get(int(next.Add(1) - 1))
				if err != nil {
					errs[ci] = err
					return
				}
				if s := c.runSession(sp, tl); s != nil {
					s.done = time.Since(start)
					mu.Lock()
					runs = append(runs, s)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return runs, errors.Join(errs...)
}

// passResult is what one pass over a serve workload measured.
type passResult struct {
	e2e    map[string]metric
	layers []layerRow
}

// runServe runs a serve workload: the untraced pass, and for --trace 1
// also the traced pass and the per-layer breakdown.
func runServe(sp serveSpec, o options) (*report, error) {
	pl, err := sp.inputs(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	tl := &tally{}
	plain, err := sp.pass(o, pl, false, tl)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: sp.name, e2e: plain.e2e, tally: tl}
	if !o.trace {
		return rep, nil
	}
	// The first pass in a process can run slower than later ones (its
	// heap grows into fresh pages), so the tracing overhead compares the
	// traced pass with an untraced pass that follows it.
	runtime.GC()
	traced, err := sp.pass(o, pl, true, tl)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	again, err := sp.pass(o, pl, false, tl)
	if err != nil {
		return nil, err
	}
	rep.traced = traced.e2e
	overhead := 100 * (ratio(again.e2e["sessions_per_s"].value, traced.e2e["sessions_per_s"].value) - 1)
	rep.layers = append(traced.layers, timingRows("sim.measure_us", "", pl.simTimes, time.Microsecond, "us", -1)[0],
		countRow("trace_overhead_pct", overhead, "%"))
	return rep, nil
}

// pass is one full run of the workload: timed bring-ups, warm-up, the
// timed window, the restart phase, and the check of every session
// against the in-process reference.
func (sp serveSpec) pass(o options, pl *planner, traced bool, tl *tally) (*passResult, error) {
	var tracer *layerTracer
	var sink telemetry.Tracer // stays a nil interface when untraced
	if traced {
		tracer = newLayerTracer()
		sink = tracer
	}
	clients := []*client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()

	var (
		setup []time.Duration
		st    *stack
		dir   string
	)
	for rep := 0; rep < setupWarm+setupReps; rep++ {
		var err error
		if dir, err = os.MkdirTemp(o.scratch, sp.name+"-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if st, err = sp.bringUp(dir, sink, tl); err != nil {
			return nil, fmt.Errorf("bringing the server up: %w", err)
		}
		for _, c := range clients {
			c.base = st.base
			if err := c.call("health", "", http.MethodGet, "/healthz", nil, http.StatusOK, nil); err != nil {
				st.stop()
				return nil, err
			}
		}
		if rep >= setupWarm {
			setup = append(setup, time.Since(t0))
		}
		if rep == setupWarm+setupReps-1 {
			break
		}
		if err := st.stop(); err != nil {
			return nil, err
		}
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
		os.RemoveAll(dir)
	}
	defer os.RemoveAll(dir)

	var next atomic.Int64
	all, err := traffic(clients, pl, &next, warmup, tl)
	if err != nil {
		st.stop()
		return nil, err
	}
	for _, c := range clients {
		c.resetStats()
		c.traced = traced
	}
	if tracer != nil {
		tracer.reset()
	}
	stopSampler := sampleStore(st.srv, traced)
	runs, err := traffic(clients, pl, &next, o.window, tl)
	storeSize := stopSampler()
	if err != nil {
		st.stop()
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		st.stop()
		return nil, err
	}
	all = append(all, runs...)

	lat := make(map[string][]time.Duration)
	for _, c := range clients {
		for route, ds := range c.lat {
			lat[route] = append(lat[route], ds...)
		}
	}
	res := &passResult{e2e: e2eOf(setup, rss)}
	done := make([]time.Duration, len(runs))
	for i, s := range runs {
		done[i] = s.done
	}
	res.e2e["sessions_per_s"] = bucketRate(done, o.window)
	latencyMetrics(res.e2e, lat)
	if traced {
		res.layers = serveRows(tracer, clients, lat, runs, storeSize)
	}

	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	if traced {
		rows, err := journalRows(dir, sp.sync, len(all), tl)
		if err != nil {
			return nil, err
		}
		res.layers = append(res.layers, rows...)
	}
	if sp.restart {
		recoverTime, rows, err := sp.restartPhase(dir, all, clients, tl)
		if err != nil {
			return nil, err
		}
		res.e2e["recover_s"] = metric{recoverTime.Seconds(), "s", 1}
		res.layers = append(res.layers, rows...)
	}

	var probe *coreProbe
	if traced {
		probe = newCoreProbe()
	}
	verifySessions(all, probe, tl)
	res.e2e["failed_ratio"] = failedRatio(tl)
	if traced {
		res.layers = append(res.layers, coreRows(probe)...)
	}
	return res, nil
}

// sampleStore polls the session table size every 10ms while a traced
// window runs; the returned stop function ends the polling and returns
// the largest size seen.
func sampleStore(srv *serve.Server, traced bool) func() int {
	if !traced {
		return func() int { return 0 }
	}
	maxSize := 0
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := srv.SessionCount(); n > maxSize {
				maxSize = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		close(done)
		<-exited
		return maxSize
	}
}

// restartPhase reopens the stopped server's journal, times Recover,
// checks that exactly the abandoned sessions came back, and finishes
// them over HTTP on the recovered server. It returns Recover's duration
// and the recovery per-layer rows.
func (sp serveSpec) restartPhase(dir string, all []*sessionRun, clients []*client, tl *tally) (time.Duration, []layerRow, error) {
	var abandoned []*sessionRun
	for _, s := range all {
		if s.abandoned {
			abandoned = append(abandoned, s)
		}
	}
	st, err := sp.bringUp(dir, nil, tl)
	if err != nil {
		return 0, nil, fmt.Errorf("restarting the server: %w", err)
	}
	rep := st.recovered
	tl.check(rep.Recovered == len(abandoned) && len(rep.Damaged) == 0,
		"restart recovered %d sessions with %d damaged, want the %d abandoned", rep.Recovered, len(rep.Damaged), len(abandoned))
	var wg sync.WaitGroup
	for ci, c := range clients {
		c.base = st.base
		c.traced = false
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(abandoned); i += len(clients) {
				s := abandoned[i]
				if c.advance(s, true, tl) {
					c.finish(s, tl)
				}
			}
		}()
	}
	wg.Wait()
	if err := st.stop(); err != nil {
		return 0, nil, fmt.Errorf("stopping the recovered server: %w", err)
	}
	rows := []layerRow{
		{"recover.session_us_p50", metric{float64(rep.RecoverP50Micros), "us", rep.Recovered}, nil, -1},
		{"recover.session_us_p99", metric{float64(rep.RecoverP99Micros), "us", rep.Recovered}, nil, -1},
		countRow("recover.snapshot_restores", float64(rep.SnapshotRestores), "count"),
		countRow("recover.observations", float64(rep.Observations), "count"),
	}
	return st.recoverTime, rows, nil
}

// verifySessions replays every session in-process through arrow.Advisor
// with the same request and deployment, and checks that the served
// result is byte-for-byte the reference's.
func verifySessions(runs []*sessionRun, probe *coreProbe, tl *tally) {
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(runs); i += workers {
				s := runs[i]
				if s.result == nil {
					tl.fail("session %d: never finished", s.plan.index)
					continue
				}
				want, err := reference(s.plan, probe)
				if err != nil {
					tl.fail("session %d: reference: %v", s.plan.index, err)
					continue
				}
				tl.check(bytes.Equal(want, s.result), "session %d (%s, seed %d): served result differs from the in-process advisor",
					s.plan.index, s.plan.req.Method, s.plan.req.Seed)
			}
		}()
	}
	wg.Wait()
}

// reference computes a session's result in-process.
func reference(sp *sessionPlan, probe *coreProbe) ([]byte, error) {
	var opts []arrow.Option
	if probe != nil {
		opts = append(opts, arrow.WithTracer(probe.tracer))
	}
	req := sp.req
	opt, cands, err := serve.BuildOptimizer(&req, opts...)
	if err != nil {
		return nil, err
	}
	adv, err := opt.NewAdvisor(cands)
	if err != nil {
		return nil, err
	}
	res, err := drive(adv, sp.table, probe)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// serveRows derives the serve and telemetry layers of a traced window
// from the server's http_request events and the clients' own timings.
// Shares are of the summed client round trips.
func serveRows(t *layerTracer, clients []*client, lat map[string][]time.Duration, runs []*sessionRun, storeMax int) []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rtt, handledTotal time.Duration
	for _, route := range routes {
		rtt += sum(lat[route])
		handledTotal += sum(t.routes[route])
	}
	var rows []layerRow
	for _, route := range routes {
		rows = append(rows, timingRows("serve.handler_"+route+"_us", "", t.routes[route], time.Microsecond, "us",
			ratio(float64(sum(t.routes[route])), float64(rtt)))...)
	}

	// Pair each client round trip with the server's handling of the same
	// request: a session's requests are sequential, so the i-th request
	// the client sent for a session is the i-th the server handled.
	sent := make(map[string][]wired)
	var suggestions int64
	for _, c := range clients {
		suggestions += c.suggestions
		for _, w := range c.wire {
			if w.sid != "" {
				sent[w.sid] = append(sent[w.sid], w)
			}
		}
	}
	var wire []time.Duration
	for sid, ws := range sent {
		hs := t.sessions[sid]
		for i := 0; i < len(ws) && i < len(hs); i++ {
			if ws[i].route == hs[i].route {
				wire = append(wire, ws[i].rtt-hs[i].dur)
			}
		}
	}
	rows = append(rows, timingRows("serve.wire_us", "", wire, time.Microsecond, "us",
		ratio(float64(rtt-handledTotal), float64(rtt)))[0])

	var creates, observes [][]byte
	for _, s := range runs {
		if len(creates) < decodeSample {
			creates = append(creates, s.plan.body)
		}
	}
	for _, c := range clients {
		observes = append(observes, c.observes...)
	}
	rows = append(rows,
		decodeRow("serve.decode_create_us", creates, func(b []byte) error { _, err := serve.DecodeSessionRequest(b); return err }),
		decodeRow("serve.decode_observe_us", observes, func(b []byte) error { _, err := serve.DecodeObserveRequest(b); return err }),
		countRow("serve.store_sessions_max", float64(storeMax), "count"),
		countRow("serve.speculate_hit_ratio", ratio(float64(t.kinds[telemetry.KindSpeculateHit]), float64(suggestions)), "ratio"),
		countRow("serve.refused", float64(t.statuses[429]+t.statuses[503]+t.statuses[504]+t.statuses[421]), "count"),
		countRow("telemetry.events_per_session", ratio(float64(t.events), float64(len(runs))), "count"),
	)
	return rows
}

// decodeRow times one decode call per body and reports the median.
func decodeRow(name string, bodies [][]byte, decode func([]byte) error) layerRow {
	ds := make([]time.Duration, 0, len(bodies))
	for _, b := range bodies {
		t0 := time.Now()
		if err := decode(b); err != nil {
			continue
		}
		ds = append(ds, time.Since(t0))
	}
	xs := in(ds, time.Microsecond)
	return layerRow{name, metric{quantile(append([]float64(nil), xs...), 0.5), "us", len(xs)}, xs, -1}
}

// journalRows measures the journal layer from the directory a pass left
// behind: records and bytes per session, a read-only ScanDir, and the
// Append latency of re-appending the scanned records into a fresh
// directory at the workload's fsync policy from two goroutines.
func journalRows(dir string, policy journal.Sync, sessions int, tl *tally) ([]layerRow, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return nil, err
	}
	var (
		recs []journal.Record
		size int64
	)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		size += int64(len(data))
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			rec, err := journal.DecodeLine(line)
			if err != nil {
				tl.fail("journal %s: %v", filepath.Base(p), err)
				continue
			}
			recs = append(recs, rec)
		}
	}
	shards := make([]int, journal.DefaultShards)
	for i := range shards {
		shards[i] = i
	}
	t0 := time.Now()
	if _, err := journal.ScanDir(dir, shards, func(format string, args ...any) { tl.fail("scan: "+format, args...) }); err != nil {
		return nil, err
	}
	scan := time.Since(t0)

	total := len(recs)
	if len(recs) > appendSample {
		recs = recs[:appendSample]
	}
	probeDir := dir + "-append"
	defer os.RemoveAll(probeDir)
	pj, err := journal.Open(probeDir, journal.WithSync(policy), journal.WithReplica("e2ebench-probe"))
	if err != nil {
		return nil, err
	}
	const writers = 2
	times := make([][]time.Duration, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(recs); i += writers {
				t0 := time.Now()
				if err := pj.Append(recs[i]); err != nil {
					errs[w] = err
					return
				}
				times[w] = append(times[w], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, pj.Close())...); err != nil {
		return nil, fmt.Errorf("journal append probe: %w", err)
	}
	appends := append(times[0], times[1]...)
	rows := []layerRow{
		countRow("journal.records_per_session", ratio(float64(total), float64(sessions)), "count"),
		countRow("journal.bytes_per_session", ratio(float64(size), float64(sessions)), "B"),
	}
	rows = append(rows, timingRows("journal.append_us", "", appends, time.Microsecond, "us", -1)...)
	return append(rows, layerRow{"journal.scan_ms", metric{float64(scan) / float64(time.Millisecond), "ms", 1}, nil, -1}), nil
}
