// Package registry is the cross-host shard-ownership plane: an HTTP
// service where serve replicas register, heartbeat, and acquire, renew,
// release or transfer time-bound journal-shard leases. It replaces the
// journal's flock'd filesystem lease files, which coordinate processes
// on one host, when replicas live on different hosts and share nothing
// but the network. Every replica leases through one Client, the
// replica in the registry's own process included: its Client serves
// each request with the registry's handler instead of a connection.
//
// # Fencing
//
// Every grant and transfer bumps the shard's epoch, a monotone fencing
// token. A holder that is paused (GC, VM freeze, partition) past its
// TTL loses the shard: renewals of a lapsed grant fail — the holder
// must re-acquire and gets a new epoch — and the holder's own journal
// refuses appends once the grant's local expiry passes, a margin
// *before* the registry would re-grant it. Between the two, a
// paused-then-resumed old owner can never acknowledge a write into a
// shard that has moved.
//
// # Clocks
//
// The wire protocol carries only relative TTLs (milliseconds), never
// absolute timestamps, so registry and replicas need no clock
// agreement. Each side anchors the TTL on its own clock; the replica
// additionally gives up the last quarter of it (see leaseMargin) to
// absorb scheduling delay between its expiry check and the write.
//
// # Persistence
//
// With a state path configured the registry persists replicas, leases
// and epochs to one JSON file by atomic temp-write-and-rename on every
// mutation, so a restarted registry resumes the exact lease table —
// live holders keep renewing their grants across the restart instead
// of stampeding to re-acquire.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
)

// DefaultLeaseTTL is the grant lifetime when Config leaves it zero:
// long enough that one missed heartbeat is survivable, short enough
// that a dead replica's shards move within seconds.
const DefaultLeaseTTL = 5 * time.Second

// Config parameterizes a registry.
type Config struct {
	// Shards is the cluster-wide journal shard count (default
	// journal.DefaultShards). Every replica's journal directory must
	// agree; replicas learn the count from the register response.
	Shards int
	// LeaseTTL is how long a grant lives without renewal.
	LeaseTTL time.Duration
	// StatePath, when set, persists the lease table across restarts.
	StatePath string
	// Now injects the clock (tests).
	Now func() time.Time
	// Warnf routes non-fatal warnings; default os.Stderr.
	Warnf func(format string, args ...any)
}

// replicaState is one registered replica.
type replicaState struct {
	Addr     string    `json:"addr,omitempty"`
	DataDir  string    `json:"data_dir,omitempty"`
	LastSeen time.Time `json:"last_seen"`
}

// shardState is one shard's lease row. Epoch only ever grows; the Prev
// fields remember the last distinct holder so a successor knows whose
// journal directory to adopt the shard's sessions from.
type shardState struct {
	Holder      string    `json:"holder,omitempty"`
	Addr        string    `json:"addr,omitempty"`
	DataDir     string    `json:"data_dir,omitempty"`
	Epoch       uint64    `json:"epoch"`
	Expiry      time.Time `json:"expiry"`
	PrevReplica string    `json:"prev_replica,omitempty"`
	PrevAddr    string    `json:"prev_addr,omitempty"`
	PrevDataDir string    `json:"prev_data_dir,omitempty"`
}

// persistedState is the state file's schema.
type persistedState struct {
	Shards   int                      `json:"shards"`
	Replicas map[string]*replicaState `json:"replicas"`
	Leases   []*shardState            `json:"leases"`
}

// Registry is the lease table plus its HTTP front. Safe for concurrent
// use; it implements http.Handler (routes under /registry/v1/).
type Registry struct {
	shards    int
	ttl       time.Duration
	statePath string
	now       func() time.Time
	warnf     func(format string, args ...any)
	mux       *http.ServeMux

	mu       sync.Mutex
	replicas map[string]*replicaState
	leases   []*shardState
}

// errUnknownReplica fences calls from replicas the registry has no
// registration for — the caller must (re-)register first. Over HTTP it
// maps to 428 Precondition Required so clients can self-heal after a
// stateless registry restart.
var errUnknownReplica = errors.New("registry: unknown replica (register first)")

// New builds a registry, loading the persisted lease table when the
// state path names an existing file (whose shard count then wins).
func New(cfg Config) (*Registry, error) {
	r := &Registry{
		shards:    cfg.Shards,
		ttl:       cfg.LeaseTTL,
		statePath: cfg.StatePath,
		now:       cfg.Now,
		warnf:     cfg.Warnf,
		replicas:  make(map[string]*replicaState),
	}
	if r.shards <= 0 {
		r.shards = journal.DefaultShards
	}
	if r.ttl <= 0 {
		r.ttl = DefaultLeaseTTL
	}
	if r.now == nil {
		r.now = time.Now
	}
	if r.warnf == nil {
		r.warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "registry: "+format+"\n", args...)
		}
	}
	if r.statePath != "" {
		data, err := os.ReadFile(r.statePath)
		if err == nil {
			var st persistedState
			if jerr := json.Unmarshal(data, &st); jerr != nil || st.Shards <= 0 || len(st.Leases) != st.Shards {
				return nil, fmt.Errorf("registry: state file %s is damaged (%v); refusing to guess the lease table", r.statePath, jerr)
			}
			r.shards = st.Shards
			r.leases = st.Leases
			if st.Replicas != nil {
				r.replicas = st.Replicas
			}
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("registry: reading state %s: %w", r.statePath, err)
		}
	}
	if r.leases == nil {
		r.leases = make([]*shardState, r.shards)
		for i := range r.leases {
			r.leases[i] = &shardState{}
		}
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /registry/v1/register", r.handleRegister)
	r.mux.HandleFunc("POST /registry/v1/acquire", r.handleAcquire)
	r.mux.HandleFunc("POST /registry/v1/renew", r.handleRenew)
	r.mux.HandleFunc("POST /registry/v1/release", r.handleRelease)
	r.mux.HandleFunc("POST /registry/v1/transfer", r.handleTransfer)
	r.mux.HandleFunc("GET /registry/v1/state", r.handleState)
	return r, nil
}

func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Shards returns the cluster shard count.
func (r *Registry) Shards() int { return r.shards }

// LeaseTTL returns the grant lifetime.
func (r *Registry) LeaseTTL() time.Duration { return r.ttl }

// persistLocked writes the lease table to the state file (atomic
// temp-write-and-rename). Callers hold r.mu. Persistence failures are
// warnings: the in-memory table stays authoritative for this process's
// lifetime.
func (r *Registry) persistLocked() {
	if r.statePath == "" {
		return
	}
	payload, err := json.MarshalIndent(persistedState{
		Shards:   r.shards,
		Replicas: r.replicas,
		Leases:   r.leases,
	}, "", "  ")
	if err != nil {
		r.warnf("marshaling state: %v", err)
		return
	}
	tmp := r.statePath + ".tmp"
	if err := os.WriteFile(tmp, append(payload, '\n'), 0o644); err != nil {
		r.warnf("writing state %s: %v", tmp, err)
		return
	}
	if err := os.Rename(tmp, r.statePath); err != nil {
		r.warnf("swapping in state %s: %v", r.statePath, err)
		os.Remove(tmp)
		return
	}
	if d, err := os.Open(filepath.Dir(r.statePath)); err == nil {
		d.Sync()
		d.Close()
	}
}

// register upserts a replica's identity and returns the cluster
// constants it must adopt.
func (r *Registry) register(replica, addr, dataDir string) (int, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.replicas[replica]
	if rs == nil {
		rs = &replicaState{}
		r.replicas[replica] = rs
	}
	rs.Addr, rs.DataDir, rs.LastSeen = addr, dataDir, r.now()
	r.persistLocked()
	return r.shards, r.ttl
}

// grantLocked renders shard's current lease row as a wire grant.
func (r *Registry) grantLocked(shard int) LeaseGrant {
	ls := r.leases[shard]
	return LeaseGrant{
		Shard:       shard,
		Epoch:       ls.Epoch,
		TTLMillis:   r.ttl.Milliseconds(),
		PrevReplica: ls.PrevReplica,
		PrevAddr:    ls.PrevAddr,
		PrevDataDir: ls.PrevDataDir,
	}
}

// acquire grants the replica every free shard it asked for (nil = all),
// up to limit (0 = no cap). A shard is free when unheld, held by the
// asker itself, or held by a grant past its TTL — the heartbeat-expiry
// reclaim path. Every grant bumps the epoch.
func (r *Registry) acquire(replica string, want []int, limit int) ([]LeaseGrant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.replicas[replica]
	if rs == nil {
		return nil, errUnknownReplica
	}
	now := r.now()
	rs.LastSeen = now
	shards := want
	if shards == nil {
		shards = make([]int, r.shards)
		for i := range shards {
			shards[i] = i
		}
	}
	var granted []LeaseGrant
	for _, shard := range shards {
		if shard < 0 || shard >= r.shards {
			continue
		}
		if limit > 0 && len(granted) >= limit {
			break
		}
		ls := r.leases[shard]
		free := ls.Holder == "" || ls.Holder == replica || !now.Before(ls.Expiry)
		if !free {
			continue
		}
		if ls.Holder != "" && ls.Holder != replica {
			ls.PrevReplica, ls.PrevAddr, ls.PrevDataDir = ls.Holder, ls.Addr, ls.DataDir
		} else if ls.Holder == replica {
			// Self re-acquire (a restart): the holder already has the
			// shard's data in its own directory. Clearing a leftover
			// adoption pointer from an earlier holder change stops the
			// restarted replica from scanning a peer's directory instead
			// of its own.
			ls.PrevReplica, ls.PrevAddr, ls.PrevDataDir = "", "", ""
		}
		ls.Holder, ls.Addr, ls.DataDir = replica, rs.Addr, rs.DataDir
		ls.Epoch++
		ls.Expiry = now.Add(r.ttl)
		granted = append(granted, r.grantLocked(shard))
	}
	if len(granted) > 0 {
		r.persistLocked()
	}
	return granted, nil
}

// renew extends the grants the replica still holds at the cited epochs.
// A lapsed, superseded or unknown grant lands in lost: the holder must
// drop the shard and re-acquire for a fresh epoch.
func (r *Registry) renew(replica string, refs []LeaseRef) (renewed, lost []int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.replicas[replica]
	if rs == nil {
		return nil, nil, errUnknownReplica
	}
	now := r.now()
	rs.LastSeen = now
	changed := false
	for _, ref := range refs {
		if ref.Shard < 0 || ref.Shard >= r.shards {
			lost = append(lost, ref.Shard)
			continue
		}
		ls := r.leases[ref.Shard]
		if ls.Holder == replica && ls.Epoch == ref.Epoch && now.Before(ls.Expiry) {
			ls.Expiry = now.Add(r.ttl)
			renewed = append(renewed, ref.Shard)
			changed = true
		} else {
			lost = append(lost, ref.Shard)
		}
	}
	if changed {
		r.persistLocked()
	}
	return renewed, lost, nil
}

// release hands a grant back, remembering the releaser as the shard's
// previous holder so a later claimant can still find the data.
func (r *Registry) release(replica string, shard int, epoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= r.shards {
		return false
	}
	ls := r.leases[shard]
	if ls.Holder != replica || ls.Epoch != epoch {
		return false
	}
	ls.PrevReplica, ls.PrevAddr, ls.PrevDataDir = ls.Holder, ls.Addr, ls.DataDir
	ls.Holder, ls.Addr, ls.DataDir = "", "", ""
	ls.Expiry = time.Time{}
	r.persistLocked()
	return true
}

// transfer moves a live grant from its holder to a successor, fenced by
// the holder's epoch — the graceful-migration path. It returns the
// successor's grant, or a refusal reason.
func (r *Registry) transfer(shard int, from string, fromEpoch uint64, to string) (*LeaseGrant, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= r.shards {
		return nil, "shard out of range"
	}
	ts := r.replicas[to]
	if ts == nil {
		return nil, "unknown successor replica"
	}
	ls := r.leases[shard]
	now := r.now()
	switch {
	case ls.Holder != from:
		return nil, fmt.Sprintf("shard held by %q, not %q", ls.Holder, from)
	case ls.Epoch != fromEpoch:
		return nil, fmt.Sprintf("stale epoch %d (shard at %d)", fromEpoch, ls.Epoch)
	case !now.Before(ls.Expiry):
		return nil, "holder's grant already expired"
	}
	ts.LastSeen = now
	ls.PrevReplica, ls.PrevAddr, ls.PrevDataDir = ls.Holder, ls.Addr, ls.DataDir
	ls.Holder, ls.Addr, ls.DataDir = to, ts.Addr, ts.DataDir
	ls.Epoch++
	ls.Expiry = now.Add(r.ttl)
	g := r.grantLocked(shard)
	r.persistLocked()
	return &g, ""
}

// StateSnapshot renders the lease table for operators, tests and the
// drain path's successor pick.
func (r *Registry) StateSnapshot() *StateResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	st := &StateResponse{Shards: r.shards, LeaseTTLMillis: r.ttl.Milliseconds()}
	names := make([]string, 0, len(r.replicas))
	for name := range r.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := r.replicas[name]
		st.Replicas = append(st.Replicas, ReplicaInfo{
			Replica:   name,
			Addr:      rs.Addr,
			DataDir:   rs.DataDir,
			AgeMillis: now.Sub(rs.LastSeen).Milliseconds(),
			Live:      now.Sub(rs.LastSeen) <= 2*r.ttl,
		})
	}
	for shard, ls := range r.leases {
		info := ShardInfo{Shard: shard, Holder: ls.Holder, Epoch: ls.Epoch}
		if ls.Holder != "" {
			info.ExpiresInMillis = ls.Expiry.Sub(now).Milliseconds()
		}
		st.Leases = append(st.Leases, info)
	}
	return st
}
