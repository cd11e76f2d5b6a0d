package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// syncBuffer makes the server's stderr readable while run is writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer runs the CLI on an ephemeral port and returns its base
// URL plus a shutdown function that waits for the graceful exit.
func startServer(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	var errOut syncBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(args, &errOut, stop) }()

	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for addr == "" {
		if m := listenRE.FindStringSubmatch(errOut.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	var shutdownOnce sync.Once
	var shutdownErr error
	shutdown := func() error {
		shutdownOnce.Do(func() {
			close(stop)
			select {
			case shutdownErr = <-done:
			case <-time.After(10 * time.Second):
				shutdownErr = fmt.Errorf("server did not exit:\n%s", errOut.String())
			}
		})
		return shutdownErr
	}
	t.Cleanup(func() { shutdown() })
	return "http://" + addr, shutdown
}

func TestServeCLIEndToEnd(t *testing.T) {
	audit := filepath.Join(t.TempDir(), "audit.jsonl")
	base, shutdown := startServer(t, "-audit", audit, "-max-sessions", "8")

	// Open a session and step it once over real HTTP.
	body := strings.NewReader(`{"method":"random-search","seed":7,"max_measurements":2}`)
	resp, err := http.Post(base+"/v1/sessions", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.ID == "" {
		t.Fatalf("create: status %d, id %q", resp.StatusCode, info.ID)
	}

	resp, err = http.Get(base + "/v1/sessions/" + info.ID + "/next")
	if err != nil {
		t.Fatal(err)
	}
	var sug struct {
		Index int `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sug); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	obs := fmt.Sprintf(`{"index":%d,"time_sec":4.2,"cost_usd":0.1}`, sug.Index)
	resp, err = http.Post(base+"/v1/sessions/"+info.ID+"/observe", "application/json", strings.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Graceful exit must flush the in-flight session and report no error.
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The audit stream must be valid JSONL carrying both HTTP and
	// session lifecycle events, stamped with the session id.
	f, err := os.Open(audit)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, skipped, err := telemetry.ReadAll(f)
	if err != nil || skipped != 0 {
		t.Fatalf("audit stream: %d skipped lines, err %v", skipped, err)
	}
	seen := map[telemetry.Kind]bool{}
	stamped := false
	for _, e := range events {
		seen[e.Kind] = true
		if e.Workload == info.ID {
			stamped = true
		}
	}
	for _, kind := range []telemetry.Kind{
		telemetry.KindHTTPRequest,
		telemetry.KindSessionCreate,
		telemetry.KindSessionEnd,
		telemetry.KindSearchStart,
	} {
		if !seen[kind] {
			t.Errorf("audit stream missing %s events", kind)
		}
	}
	if !stamped {
		t.Error("no audit event stamped with the session id")
	}
}

func TestServeCLIRejectsBadFlags(t *testing.T) {
	var errOut syncBuffer
	if err := run([]string{"-addr"}, &errOut, nil); err == nil {
		t.Error("dangling -addr should fail")
	}
	if err := run([]string{"positional"}, &errOut, nil); err == nil {
		t.Error("positional args should fail")
	}
	if err := run([]string{"-audit", "/does/not/exist/audit.jsonl", "-addr", "127.0.0.1:0"}, &errOut, nil); err == nil {
		t.Error("unwritable audit path should fail")
	}
}

func TestServeCLIAddrInUse(t *testing.T) {
	base, _ := startServer(t)
	var errOut syncBuffer
	addr := strings.TrimPrefix(base, "http://")
	if err := run([]string{"-addr", addr}, &errOut, make(chan struct{})); err == nil {
		t.Error("binding a taken address should fail")
	}
}

// TestRegistryRoutesOnlyOnHost: a replica that does not host the
// registry answers its routes 404 instead of dropping the connection.
func TestRegistryRoutesOnlyOnHost(t *testing.T) {
	base, shutdown := startServer(t)
	resp, err := http.Get(base + "/registry/v1/state")
	if err != nil {
		t.Fatalf("GET /registry/v1/state on a non-hosting replica: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}
