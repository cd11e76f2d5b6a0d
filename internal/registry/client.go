package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/journal"
)

// leaseMargin is how much of a grant's TTL the holder gives up locally:
// the journal stops appending a margin before the registry would
// re-grant the shard, so a scheduling pause between the expiry check
// and the disk write cannot slip an acknowledged record into a shard
// that has moved.
func leaseMargin(ttl time.Duration) time.Duration {
	m := ttl / 4
	if m < 10*time.Millisecond {
		m = 10 * time.Millisecond
	}
	if m > ttl/2 {
		m = ttl / 2
	}
	return m
}

// grantLease anchors a wire grant on the local clock, margin applied.
// Callers pass the clock reading taken BEFORE the request went out, not
// after the response came back: the registry anchors the grant's expiry
// when it processes the request, which is never earlier than the send,
// so a send-time local anchor keeps local expiry ≤ registry expiry no
// matter how long the response took to arrive. Anchoring at receipt
// would let a slow response (latency > margin) push the local expiry
// past the registry's, re-opening the split-brain the fence exists to
// prevent.
func grantLease(g LeaseGrant, now time.Time) journal.Lease {
	l := journal.Lease{
		Shard:       g.Shard,
		Epoch:       g.Epoch,
		PrevReplica: g.PrevReplica,
		PrevAddr:    g.PrevAddr,
		PrevDataDir: g.PrevDataDir,
	}
	if g.TTLMillis > 0 {
		ttl := time.Duration(g.TTLMillis) * time.Millisecond
		l.Expiry = now.Add(ttl - leaseMargin(ttl))
	}
	return l
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithHTTPClient replaces the transport (tests route it in-process).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithClientNow injects the client's clock.
func WithClientNow(now func() time.Time) ClientOption {
	return func(c *Client) {
		if now != nil {
			c.now = now
		}
	}
}

// Client speaks the registry protocol on a replica's behalf and
// implements journal.LeaseManager and journal.TransferLeaser, so
// journal.Open(..., WithLeaseManager(client)) swaps the filesystem
// lease files for registry grants wholesale. It is the only lease
// client: a peer's reaches the registry over HTTP (NewClient), and the
// hosting replica's calls the registry's handler in-process
// ((*Registry).Client). It registers lazily and re-registers whenever
// the registry answers 428 — the self-heal after a registry restart
// without persisted state.
type Client struct {
	base    string // registry base URL, e.g. http://host:port
	replica string
	addr    string // this replica's advertised base URL
	dataDir string
	hc      *http.Client
	now     func() time.Time

	mu         sync.Mutex
	registered bool
	shards     int
	ttl        time.Duration
}

// NewClient builds a registry client for one replica: base is the
// registry's URL, addr how peers reach this replica, dataDir its
// journal directory (what a successor scans after this replica dies).
func NewClient(base, replica, addr, dataDir string, opts ...ClientOption) *Client {
	c := &Client{
		base:    base,
		replica: replica,
		addr:    addr,
		dataDir: dataDir,
		hc:      &http.Client{Timeout: 10 * time.Second},
		now:     time.Now,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Register announces the replica and caches the cluster constants. It
// is idempotent; Acquire and Heartbeat call it implicitly.
func (c *Client) Register() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registerLocked()
}

func (c *Client) registerLocked() error {
	var out RegisterResponse
	if err := c.do("/registry/v1/register", RegisterRequest{
		Replica: c.replica, Addr: c.addr, DataDir: c.dataDir,
	}, &out); err != nil {
		return err
	}
	c.registered = true
	c.shards = out.Shards
	c.ttl = time.Duration(out.LeaseTTLMillis) * time.Millisecond
	return nil
}

// Shards returns the cluster shard count, registering first if needed.
// Journal directories opened against a registry must use this count.
func (c *Client) Shards() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.registered {
		if err := c.registerLocked(); err != nil {
			return 0, err
		}
	}
	return c.shards, nil
}

// post sends one request, transparently (re-)registering on 428.
func (c *Client) post(path string, in, out any) error {
	c.mu.Lock()
	if !c.registered {
		if err := c.registerLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.mu.Unlock()
	err := c.do(path, in, out)
	if err, ok := err.(*statusError); ok && err.status == http.StatusPreconditionRequired {
		c.mu.Lock()
		c.registered = false
		rerr := c.registerLocked()
		c.mu.Unlock()
		if rerr != nil {
			return rerr
		}
		return c.do(path, in, out)
	}
	return err
}

// statusError is a non-200 registry answer.
type statusError struct {
	status int
	path   string
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("registry: %s answered %d: %s", e.path, e.status, e.body)
}

func (c *Client) do(path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("registry: marshaling %s request: %w", path, err)
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("registry: %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("registry: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		msg := string(bytes.TrimSpace(body))
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &statusError{status: resp.StatusCode, path: path, body: msg}
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("registry: decoding %s response: %w", path, err)
		}
	}
	return nil
}

// Acquire implements journal.LeaseManager.
func (c *Client) Acquire(shard int) (journal.Lease, bool, error) {
	start := c.now()
	var out AcquireResponse
	if err := c.post("/registry/v1/acquire", AcquireRequest{
		Replica: c.replica, Shards: []int{shard}, Limit: 1,
	}, &out); err != nil {
		return journal.Lease{}, false, err
	}
	if len(out.Granted) == 0 {
		return journal.Lease{}, false, nil
	}
	return grantLease(out.Granted[0], start), true, nil
}

// Renew implements journal.LeaseManager.
func (c *Client) Renew(l journal.Lease) (journal.Lease, bool, error) {
	start := c.now()
	var out RenewResponse
	if err := c.post("/registry/v1/renew", RenewRequest{
		Replica: c.replica, Leases: []LeaseRef{{Shard: l.Shard, Epoch: l.Epoch}},
	}, &out); err != nil {
		return l, false, err
	}
	for _, shard := range out.Renewed {
		if shard == l.Shard {
			if out.LeaseTTLMillis > 0 {
				ttl := time.Duration(out.LeaseTTLMillis) * time.Millisecond
				l.Expiry = start.Add(ttl - leaseMargin(ttl))
			}
			return l, true, nil
		}
	}
	return l, false, nil
}

// Release implements journal.LeaseManager.
func (c *Client) Release(l journal.Lease) error {
	return c.post("/registry/v1/release", ReleaseRequest{
		Replica: c.replica, Shard: l.Shard, Epoch: l.Epoch,
	}, &ReleaseResponse{})
}

// Transfer implements journal.TransferLeaser: this replica is the
// successor taking the shard over from its draining holder.
func (c *Client) Transfer(shard int, from string, fromEpoch uint64) (journal.Lease, bool, error) {
	start := c.now()
	var out TransferResponse
	if err := c.post("/registry/v1/transfer", TransferRequest{
		Shard: shard, From: from, FromEpoch: fromEpoch, To: c.replica,
	}, &out); err != nil {
		return journal.Lease{}, false, err
	}
	if out.Granted == nil {
		return journal.Lease{}, false, nil
	}
	return grantLease(*out.Granted, start), true, nil
}

// Heartbeat is a pure liveness ping — a replica holding zero shards
// still announces itself so the registry keeps it eligible as a
// migration successor.
func (c *Client) Heartbeat() error {
	return c.post("/registry/v1/renew", RenewRequest{Replica: c.replica}, &RenewResponse{})
}

// State fetches the cluster view.
func (c *Client) State() (*StateResponse, error) {
	resp, err := c.hc.Get(c.base + "/registry/v1/state")
	if err != nil {
		return nil, fmt.Errorf("registry: state: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("registry: reading state: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{status: resp.StatusCode, path: "/registry/v1/state", body: string(bytes.TrimSpace(body))}
	}
	var st StateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("registry: decoding state: %w", err)
	}
	return &st, nil
}

// Client returns the lease client of a replica in the process hosting
// this registry: an ordinary Client whose transport hands each request
// to the registry's own handler in the calling goroutine, so the
// hosting replica registers and leases through the same code, wire
// protocol and send-time anchoring as its peers before its own listener
// serves. The client's clock is the registry's.
func (r *Registry) Client(replica, addr, dataDir string) *Client {
	return NewClient("http://registry.in-process", replica, addr, dataDir,
		WithHTTPClient(&http.Client{Transport: handlerTransport{r}}),
		WithClientNow(r.now))
}

// handlerTransport answers each request with its handler, without a
// connection.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.Result(), nil
}
