package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/serve"
)

// TestChaosChild is not a test: it is the server process the kill -9
// chaos test spawns and murders. It runs only under the chaos env vars,
// serving until signalled (or killed).
func TestChaosChild(t *testing.T) {
	if os.Getenv("ARROW_SERVE_CHAOS_CHILD") == "" {
		t.Skip("helper process for TestServeCLIKillNineRecovery")
	}
	args := strings.Split(os.Getenv("ARROW_SERVE_CHAOS_ARGS"), "\x1f")
	if err := run(args, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// chaosProc is one spawned server process.
type chaosProc struct {
	cmd    *exec.Cmd
	base   string
	stdout *syncBuffer
	stderr *syncBuffer
}

// spawnServer re-execs the test binary as a real arrow-serve process
// (the TestChaosChild entry point) so the chaos test can SIGKILL it —
// an in-process server cannot be killed mid-write, a subprocess can.
func spawnServer(t *testing.T, args ...string) *chaosProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$")
	cmd.Env = append(os.Environ(),
		"ARROW_SERVE_CHAOS_CHILD=1",
		"ARROW_SERVE_CHAOS_ARGS="+strings.Join(append([]string{"-addr", "127.0.0.1:0"}, args...), "\x1f"),
	)
	p := &chaosProc{cmd: cmd, stdout: &syncBuffer{}, stderr: &syncBuffer{}}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { io.Copy(p.stdout, outPipe) }()
	go func() { io.Copy(p.stderr, errPipe) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	deadline := time.Now().Add(20 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(p.stderr.String()); m != nil {
			p.base = "http://" + m[1]
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos child never announced its address:\nstderr: %s\nstdout: %s", p.stderr.String(), p.stdout.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill9 SIGKILLs the process and reaps it.
func (p *chaosProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// terminate asks for a graceful exit and waits for it.
func (p *chaosProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("chaos child did not exit on SIGTERM:\n%s", p.stderr.String())
	}
}

// recoveryReport parses the JSON report the server prints to stdout on
// boot (the only '{'-line there; test-framework chatter never is).
func (p *chaosProc) recoveryReport(t *testing.T) serve.RecoveryReport {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(p.stdout.String()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "{") {
			var report serve.RecoveryReport
			if err := json.Unmarshal([]byte(line), &report); err != nil {
				t.Fatalf("undecodable recovery report %q: %v", line, err)
			}
			return report
		}
	}
	t.Fatalf("no recovery report on stdout:\n%s", p.stdout.String())
	return serve.RecoveryReport{}
}

// httpClient is the minimal measuring client the chaos test drives over
// real HTTP against a real process.
type httpClient struct {
	t    *testing.T
	base string
}

func (c *httpClient) postJSON(path string, body any, out any) int {
	c.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (c *httpClient) getJSON(path string, out any) int {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (c *httpClient) create(req serve.SessionRequest) string {
	c.t.Helper()
	var info serve.SessionInfo
	if st := c.postJSON("/v1/sessions", req, &info); st != http.StatusCreated {
		c.t.Fatalf("create: status %d", st)
	}
	return info.ID
}

func (c *httpClient) next(id string) arrow.Suggestion {
	c.t.Helper()
	var sug arrow.Suggestion
	if st := c.getJSON("/v1/sessions/"+id+"/next", &sug); st != http.StatusOK {
		c.t.Fatalf("next %s: status %d", id, st)
	}
	return sug
}

// step drives up to n observe rounds and returns how many were acked.
func (c *httpClient) step(id string, target arrow.Target, n int) int {
	c.t.Helper()
	acked := 0
	sug := c.next(id)
	for i := 0; i < n && !sug.Done; i++ {
		out, merr := target.Measure(sug.Index)
		var req serve.ObserveRequest
		if merr != nil {
			req = serve.ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
		} else {
			req = serve.ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
		}
		var resp serve.ObserveResponse
		if st := c.postJSON("/v1/sessions/"+id+"/observe", req, &resp); st != http.StatusOK {
			c.t.Fatalf("observe %s: status %d", id, st)
		}
		acked++
		if resp.Next != nil {
			sug = *resp.Next
		} else {
			// The server acked before the plan finished; fetch the
			// follow-up the session's search loop planned meanwhile.
			sug = c.next(id)
		}
	}
	return acked
}

// nextBatch fetches k concurrent suggestions.
func (c *httpClient) nextBatch(id string, k int) []arrow.Suggestion {
	c.t.Helper()
	var resp serve.NextBatchResponse
	if st := c.postJSON("/v1/sessions/"+id+"/nextbatch", serve.NextBatchRequest{K: k}, &resp); st != http.StatusOK {
		c.t.Fatalf("nextbatch %s: status %d", id, st)
	}
	if len(resp.Suggestions) == 0 {
		c.t.Fatalf("nextbatch %s: empty batch", id)
	}
	return resp.Suggestions
}

// observe delivers one measurement for the candidate.
func (c *httpClient) observe(id string, target arrow.Target, index int) {
	c.t.Helper()
	out, merr := target.Measure(index)
	var req serve.ObserveRequest
	if merr != nil {
		req = serve.ObserveRequest{Index: index, Failed: true, Reason: merr.Error()}
	} else {
		req = serve.ObserveRequest{Index: index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
	}
	if st := c.postJSON("/v1/sessions/"+id+"/observe", req, nil); st != http.StatusOK {
		c.t.Fatalf("observe %s: status %d", id, st)
	}
}

// finish runs the session to completion and returns the raw result
// body, the byte-comparison artifact.
func (c *httpClient) finish(id string, target arrow.Target) []byte {
	c.t.Helper()
	c.step(id, target, 1<<20)
	resp, err := http.Get(c.base + "/v1/sessions/" + id + "/result")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestServeCLIKillNineRecovery is the tentpole chaos test: SIGKILL a
// real arrow-serve process mid-session, restart it over the same
// journal directory, and finish every session — with zero acknowledged
// observations lost and the result byte-identical to an uninterrupted
// run of the same session. Session C dies with batch suggestions
// pending and one of them observed out of order: recovery must replay
// only the acked history (the batch record
// and the one observation — never an unacked fantasy) and still finish
// byte-identically.
func TestServeCLIKillNineRecovery(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqA := serve.SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true}
	reqB := serve.SessionRequest{Method: "naive-bo", Seed: 7}
	reqC := serve.SessionRequest{Method: "hybrid-bo", Seed: 11, Trace: true}

	// Uninterrupted reference runs (no journal, same session ids — B is
	// created in between only to keep the id sequence aligned).
	refBase, refShutdown := startServer(t)
	ref := &httpClient{t: t, base: refBase}
	refID := ref.create(reqA)
	want := ref.finish(refID, target)
	ref.create(reqB)
	refCID := ref.create(reqC)
	refSugs := ref.nextBatch(refCID, 3)
	if len(refSugs) > 1 {
		ref.observe(refCID, target, refSugs[1].Index)
	}
	wantC := ref.finish(refCID, target)
	refShutdown()

	// The victim process, journaling with fsync always.
	dir := filepath.Join(t.TempDir(), "journal")
	jargs := []string{"-journal-dir", dir, "-fsync", "always", "-replica", "chaos"}
	p1 := spawnServer(t, jargs...)
	c1 := &httpClient{t: t, base: p1.base}
	idA := c1.create(reqA)
	if idA != refID {
		t.Fatalf("id skew breaks the byte comparison: %s vs %s", idA, refID)
	}
	idB := c1.create(reqB)
	idC := c1.create(reqC)
	if idC != refCID {
		t.Fatalf("id skew breaks the byte comparison: %s vs %s", idC, refCID)
	}
	ackedA := c1.step(idA, target, 3)
	ackedB := c1.step(idB, target, 2)

	// Session C: take a batch of concurrent suggestions, observe one out
	// of order. The outcome waits in the stepper for the loop to reach
	// that candidate when the process dies.
	sugsC := c1.nextBatch(idC, 3)
	if len(sugsC) != len(refSugs) {
		t.Fatalf("batch skew breaks the byte comparison: %d vs %d suggestions", len(sugsC), len(refSugs))
	}
	ackedC := 0
	if len(sugsC) > 1 {
		if sugsC[1].Index != refSugs[1].Index {
			t.Fatalf("batch skew: victim suggests %d, reference %d", sugsC[1].Index, refSugs[1].Index)
		}
		c1.observe(idC, target, sugsC[1].Index)
		ackedC = 1
	}

	// kill -9: no flush, no lease release, no goodbye.
	p1.kill9(t)

	// Restart over the same journal. The dead process's leases are
	// stolen (same replica name and a dead pid), every session replays.
	p2 := spawnServer(t, jargs...)
	report := p2.recoveryReport(t)
	if report.Recovered != 3 {
		t.Fatalf("recovered %d sessions, want 3 (report %+v)", report.Recovered, report)
	}
	// Only acked observations replay: plans in flight and the
	// unobserved batch fantasies left no journal records.
	if report.Observations != ackedA+ackedB+ackedC {
		t.Fatalf("replayed %d observations, want %d acked (report %+v)", report.Observations, ackedA+ackedB+ackedC, report)
	}
	if len(report.Damaged) != 0 {
		t.Fatalf("fsync=always journal reported damage after kill -9: %v", report.Damaged)
	}

	// Finish every session against the restarted process. Zero lost
	// observations: sessions A and C must produce results byte-identical
	// to the uninterrupted runs, wall-stripped traces included.
	c2 := &httpClient{t: t, base: p2.base}
	got := c2.finish(idA, target)
	if !bytes.Equal(got, want) {
		t.Errorf("post-crash result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	var resB serve.ResultResponse
	if err := json.Unmarshal(c2.finish(idB, target), &resB); err != nil {
		t.Fatal(err)
	}
	if resB.Result == nil || resB.Result.Partial {
		t.Fatalf("session B did not finish cleanly after recovery: %+v", resB.Result)
	}
	gotC := c2.finish(idC, target)
	if !bytes.Equal(gotC, wantC) {
		t.Errorf("post-crash batch session diverged from uninterrupted run:\n got %s\nwant %s", gotC, wantC)
	}

	p2.terminate(t)
}
