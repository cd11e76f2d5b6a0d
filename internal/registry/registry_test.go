package registry

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// fakeClock is a hand-advanced clock shared by registry, clients and
// journals under test, so expiry is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestRegistry(t *testing.T, clock *fakeClock, cfg Config) *Registry {
	t.Helper()
	cfg.Now = clock.Now
	cfg.Warnf = t.Logf
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestExpiredLeaseAppendRejected is the fencing edge the whole design
// hangs on: once a shard lease's (margined) expiry passes, the journal
// refuses to append — even though nothing else changed — because the
// registry may already have re-granted the shard to another replica. A
// paused-then-resumed process cannot ack into a shard it lost.
func TestExpiredLeaseAppendRejected(t *testing.T) {
	clock := newFakeClock()
	reg := newTestRegistry(t, clock, Config{Shards: 1, LeaseTTL: time.Second})
	dir := t.TempDir()
	mgr := reg.Client("a", "http://a", dir)
	j, err := journal.Open(dir,
		journal.WithReplica("a"), journal.WithShards(1),
		journal.WithLeaseManager(mgr), journal.WithNow(clock.Now),
		journal.WithWarnf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	rec := journal.Record{Session: "sess-1", Seq: 0, Kind: journal.KindCreate}
	if err := j.Append(rec); err != nil {
		t.Fatalf("append under a live lease: %v", err)
	}

	// Cross the margined local expiry (ttl - ttl/4) but not even a
	// renewal has happened: the local fence alone must reject.
	clock.Advance(900 * time.Millisecond)
	rec.Seq = 1
	rec.Kind = journal.KindObserve
	if err := j.Append(rec); !errors.Is(err, journal.ErrLeaseExpired) {
		t.Fatalf("append on an expired lease returned %v, want ErrLeaseExpired", err)
	}

	// Renewal restores the fence.
	lost, err := j.RenewLeases()
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("renew within the registry TTL lost shards %v", lost)
	}
	if err := j.Append(rec); err != nil {
		t.Fatalf("append after renewal: %v", err)
	}
}

// TestRenewAfterExpiryIsLostThenNewEpoch: a renewal arriving after the
// registry-side expiry does not resurrect the old grant — the shard is
// reported lost, and re-acquiring mints a strictly larger epoch, so any
// record fenced by the old epoch can never be mistaken for current.
func TestRenewAfterExpiryIsLostThenNewEpoch(t *testing.T) {
	clock := newFakeClock()
	reg := newTestRegistry(t, clock, Config{Shards: 1, LeaseTTL: time.Second})
	mgr := reg.Client("a", "http://a", t.TempDir())

	l1, ok, err := mgr.Acquire(0)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	clock.Advance(2 * time.Second)

	if _, renewed, err := mgr.Renew(l1); err != nil || renewed {
		t.Fatalf("renew after expiry: renewed=%v err=%v, want lost", renewed, err)
	}
	l2, ok, err := mgr.Acquire(0)
	if err != nil || !ok {
		t.Fatalf("re-acquire after expiry: ok=%v err=%v", ok, err)
	}
	if l2.Epoch <= l1.Epoch {
		t.Fatalf("re-acquire epoch %d did not advance past %d", l2.Epoch, l1.Epoch)
	}
	// And the stale grant stays dead: renewing the old epoch while the
	// new one is live must fail even though the holder name matches.
	if _, renewed, err := mgr.Renew(l1); err != nil || renewed {
		t.Fatalf("stale-epoch renew: renewed=%v err=%v, want lost", renewed, err)
	}
}

// TestTwoClaimantsRaceOneShard: with a single shard and two replicas
// over HTTP, exactly one acquire wins; the loser only gets the shard
// after the winner's lease expires, with a bumped epoch and the
// winner's journal directory in the grant (the adoption pointer).
func TestTwoClaimantsRaceOneShard(t *testing.T) {
	clock := newFakeClock()
	reg := newTestRegistry(t, clock, Config{Shards: 1, LeaseTTL: time.Second})
	ts := httptest.NewServer(reg)
	defer ts.Close()

	dirA, dirB := t.TempDir(), t.TempDir()
	a := NewClient(ts.URL, "a", "http://a", dirA, WithClientNow(clock.Now))
	b := NewClient(ts.URL, "b", "http://b", dirB, WithClientNow(clock.Now))

	la, okA, err := a.Acquire(0)
	if err != nil || !okA {
		t.Fatalf("a acquire: ok=%v err=%v", okA, err)
	}
	if _, okB, err := b.Acquire(0); err != nil || okB {
		t.Fatalf("b acquired a held shard: ok=%v err=%v", okB, err)
	}

	clock.Advance(2 * time.Second)
	lb, okB, err := b.Acquire(0)
	if err != nil || !okB {
		t.Fatalf("b acquire after expiry: ok=%v err=%v", okB, err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("takeover epoch %d did not advance past %d", lb.Epoch, la.Epoch)
	}
	if lb.PrevReplica != "a" || lb.PrevDataDir != dirA {
		t.Fatalf("takeover grant lost the adoption pointer: %+v", lb)
	}
	// a's renewal of its stale grant reports lost, not an error.
	if _, renewed, err := a.Renew(la); err != nil || renewed {
		t.Fatalf("a renewed a lost shard: renewed=%v err=%v", renewed, err)
	}
}

// laggedTransport delivers responses late: it advances the shared fake
// clock AFTER the registry has processed the request, modeling network
// delay (or a client pause) between the registry anchoring a grant's
// expiry and the client seeing the response.
type laggedTransport struct {
	clock *fakeClock
	lag   time.Duration
}

func (t *laggedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	t.clock.Advance(t.lag)
	return resp, err
}

// TestLeaseAnchoredAtSendTime pins the grant-anchoring rule: the client
// must anchor a grant's local expiry at the clock reading taken before
// the request went out, never at response receipt. With response lag
// exceeding the local margin (ttl/4), a receipt-time anchor would place
// the local expiry AFTER the registry-side expiry, letting a holder
// keep acking appends into a shard the registry already re-granted.
func TestLeaseAnchoredAtSendTime(t *testing.T) {
	clock := newFakeClock()
	reg := newTestRegistry(t, clock, Config{Shards: 1, LeaseTTL: time.Second})
	ts := httptest.NewServer(reg)
	defer ts.Close()

	const ttl = time.Second
	lag := 600 * time.Millisecond // > margin of ttl/4
	hc := &http.Client{Transport: &laggedTransport{clock: clock, lag: lag}}
	a := NewClient(ts.URL, "a", "http://a", t.TempDir(),
		WithClientNow(clock.Now), WithHTTPClient(hc))
	b := NewClient(ts.URL, "b", "http://b", t.TempDir(),
		WithClientNow(clock.Now), WithHTTPClient(hc))
	// Register up front so each leg below is exactly one lagged round
	// trip; a lazy registration inside Acquire/Transfer would burn lease
	// time before the call under test even reaches the registry.
	if err := a.Register(); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(); err != nil {
		t.Fatal(err)
	}

	start := clock.Now()
	la, ok, err := a.Acquire(0)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	want := start.Add(ttl - leaseMargin(ttl))
	if !la.Expiry.Equal(want) {
		t.Fatalf("acquire expiry anchored at %v, want send-time anchor %v", la.Expiry, want)
	}

	start = clock.Now()
	la, ok, err = a.Renew(la)
	if err != nil || !ok {
		t.Fatalf("renew: ok=%v err=%v", ok, err)
	}
	want = start.Add(ttl - leaseMargin(ttl))
	if !la.Expiry.Equal(want) {
		t.Fatalf("renew expiry anchored at %v, want send-time anchor %v", la.Expiry, want)
	}

	start = clock.Now()
	lb, ok, err := b.Transfer(0, "a", la.Epoch)
	if err != nil || !ok {
		t.Fatalf("transfer: ok=%v err=%v", ok, err)
	}
	want = start.Add(ttl - leaseMargin(ttl))
	if !lb.Expiry.Equal(want) {
		t.Fatalf("transfer expiry anchored at %v, want send-time anchor %v", lb.Expiry, want)
	}
}

// TestTransferFencesStaleEpoch pins the migration fence: a transfer
// citing an outdated (shard, epoch) pair is refused, while the current
// one moves the lease and bumps the epoch.
func TestTransferFencesStaleEpoch(t *testing.T) {
	clock := newFakeClock()
	reg := newTestRegistry(t, clock, Config{Shards: 1, LeaseTTL: time.Minute})
	a := reg.Client("a", "http://a", t.TempDir())
	b := reg.Client("b", "http://b", t.TempDir())

	la, ok, err := a.Acquire(0)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := b.Transfer(0, "a", la.Epoch-1); ok {
		t.Fatal("transfer with a stale epoch was granted")
	}
	if _, ok, _ := b.Transfer(0, "nobody", la.Epoch); ok {
		t.Fatal("transfer from a non-holder was granted")
	}
	lb, ok, err := b.Transfer(0, "a", la.Epoch)
	if err != nil || !ok {
		t.Fatalf("legitimate transfer refused: ok=%v err=%v", ok, err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("transfer epoch %d did not advance past %d", lb.Epoch, la.Epoch)
	}
	// The drained holder can no longer renew or re-transfer.
	if _, renewed, _ := a.Renew(la); renewed {
		t.Fatal("drained holder renewed the transferred shard")
	}
}

// TestRegistryRestartPreservesLeases: a registry with a state path
// restarts into the same lease table — holders, epochs — so an
// in-flight cluster keeps its shard assignment across a registry
// restart, and renewals from live replicas keep working.
func TestRegistryRestartPreservesLeases(t *testing.T) {
	clock := newFakeClock()
	state := filepath.Join(t.TempDir(), "registry.json")
	reg1 := newTestRegistry(t, clock, Config{Shards: 4, LeaseTTL: time.Minute, StatePath: state})
	a := reg1.Client("a", "http://a", t.TempDir())
	var leases []journal.Lease
	for shard := 0; shard < 4; shard++ {
		l, ok, err := a.Acquire(shard)
		if err != nil || !ok {
			t.Fatalf("acquire %d: ok=%v err=%v", shard, ok, err)
		}
		leases = append(leases, l)
	}

	reg2 := newTestRegistry(t, clock, Config{StatePath: state})
	if reg2.Shards() != 4 {
		t.Fatalf("restarted registry has %d shards, want 4 from the state file", reg2.Shards())
	}
	st := reg2.StateSnapshot()
	for _, row := range st.Leases {
		if row.Holder != "a" {
			t.Fatalf("shard %d lost its holder across restart: %+v", row.Shard, row)
		}
		if want := leases[row.Shard].Epoch; row.Epoch != want {
			t.Fatalf("shard %d epoch drifted across restart: %d want %d", row.Shard, row.Epoch, want)
		}
	}
	// The replica registration survived too: renew works without a
	// fresh register round-trip.
	renewed, _, err := reg2.renew("a", []LeaseRef{{Shard: 0, Epoch: leases[0].Epoch}})
	if err != nil || len(renewed) != 1 || renewed[0] != 0 {
		t.Fatalf("renew against restarted registry: renewed=%v err=%v", renewed, err)
	}
}

// TestClientSelfHealsAfterStatelessRestart: a registry restarted
// WITHOUT a state file forgets every replica; the client's next call
// gets 428 Precondition Required and transparently re-registers. Lease
// epochs restart at 1 in that world — which is safe only because the
// journal-side margined expiry already fenced the old grants.
func TestClientSelfHealsAfterStatelessRestart(t *testing.T) {
	clock := newFakeClock()
	reg := newTestRegistry(t, clock, Config{Shards: 2, LeaseTTL: time.Minute})
	var mu sync.Mutex
	current := reg
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := current
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, "a", "http://a", t.TempDir(), WithClientNow(clock.Now))
	if _, ok, err := c.Acquire(0); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}

	mu.Lock()
	current = newTestRegistry(t, clock, Config{Shards: 2, LeaseTTL: time.Minute})
	mu.Unlock()

	if err := c.Heartbeat(); err != nil {
		t.Fatalf("heartbeat did not self-heal after registry restart: %v", err)
	}
	if _, ok, err := c.Acquire(1); err != nil || !ok {
		t.Fatalf("acquire after self-heal: ok=%v err=%v", ok, err)
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].Replica != "a" {
		t.Fatalf("replica not re-registered: %+v", st.Replicas)
	}
}
