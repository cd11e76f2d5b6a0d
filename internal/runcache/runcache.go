// Package runcache is the study layer's cross-experiment memoization
// primitive. Every search the paper's evaluation runs is a pure function
// of its configuration fingerprint (method, workload, objective, seed,
// substrate version), so the figures — which rerun the same (method,
// workload, seed) searches over and over — can share one execution per
// distinct key.
//
// A Store is two-tiered:
//
//   - an in-memory concurrent map with singleflight deduplication:
//     concurrent requests for the same key run the computation once and
//     every waiter shares the result;
//   - an optional on-disk tier (JSONL shard files under a cache
//     directory) that makes re-runs near-instant and lets interrupted
//     studies resume where they stopped. Entries are appended as they
//     are computed, as the checksummed lines of internal/shardlog (the
//     session journal's format). Open cuts off the torn tail a killed
//     process leaves; a line failing its checksum (corruption, or an
//     older cache's unchecksummed format) is skipped with a warning and
//     recomputed; entries written under a different substrate version
//     are invalidated on load. One process writes a cache directory at
//     a time: Open's tail cut could take a line another is appending.
//
// Values cross the disk tier as JSON, so cached values must round-trip
// exactly through encoding/json (Go prints float64 in the shortest form
// that parses back bit-identically, so plain numeric payloads qualify).
// Results returned from Do may be shared between callers and must be
// treated as immutable.
package runcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/shardlog"
	"repro/internal/telemetry"
)

// Key is the content-addressed identity of one cached computation.
// Fingerprint.Key produces one for a search; any unique string works
// (the truth-table cache uses structured plain-text keys).
type Key string

// numShards spreads the disk tier over this many JSONL files so
// concurrent writers rarely contend on one append lock.
const numShards = 16

// Stats counts cache outcomes. All counters are cumulative for the
// lifetime of the Store.
type Stats struct {
	// Hits served from the in-memory tier (computed this process).
	Hits int64
	// DiskHits served from entries loaded from the persistent tier.
	DiskHits int64
	// Misses ran the computation.
	Misses int64
	// Shared waited on another goroutine's in-flight computation of the
	// same key (singleflight deduplication).
	Shared int64
	// Loaded is the number of entries read from disk at Open.
	Loaded int64
	// Invalidated counts disk entries skipped for a substrate mismatch.
	Invalidated int64
	// Corrupt counts undecodable or truncated disk lines skipped.
	Corrupt int64
}

// Lookups is the total number of Do calls accounted for.
func (s Stats) Lookups() int64 { return s.Hits + s.DiskHits + s.Misses + s.Shared }

// ReuseRatio is the fraction of lookups served without running the
// computation (memory, disk, or in-flight sharing); 0 when idle.
func (s Stats) ReuseRatio() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits+s.Shared) / float64(n)
}

// Option configures a Store.
type Option func(*config)

type config struct {
	warnf  func(format string, args ...any)
	tracer telemetry.Tracer
}

// WithWarnf routes non-fatal cache warnings (corrupt shard lines,
// append failures). The default writes to os.Stderr.
func WithWarnf(fn func(format string, args ...any)) Option {
	return func(c *config) {
		if fn != nil {
			c.warnf = fn
		}
	}
}

// WithTracer emits one telemetry.KindCacheLookup event per Do call. The
// key is deterministic (it lands in Detail); the disposition — hit,
// disk, shared or miss — depends on execution history, so it goes into
// the event's wall-clock section and golden comparisons ignore it.
func WithTracer(t telemetry.Tracer) Option {
	return func(c *config) { c.tracer = t }
}

// Store is a two-tier memoization map from Key to V.
type Store[V any] struct {
	dir       string // "" disables the persistent tier
	substrate string
	warnf     func(format string, args ...any)
	tracer    telemetry.Tracer

	mu       sync.Mutex
	mem      map[Key]entry[V]
	inflight map[Key]*call[V]

	files  [numShards]shardlog.File
	closed atomic.Bool // set by Close; checked under a file's mutex

	hits, diskHits, misses, shared atomic.Int64
	loaded, invalidated, corrupt   int64 // set once at Open
}

type entry[V any] struct {
	val      V
	fromDisk bool
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// record is what one shard line carries.
type record struct {
	Key       Key             `json:"k"`
	Substrate string          `json:"s"`
	Value     json.RawMessage `json:"v"`
}

// Open builds a Store. dir == "" keeps the cache memory-only; otherwise
// the directory is created and every shard file in it is loaded (entries
// whose substrate differs from the given one are invalidated, damaged
// lines are skipped with a warning, a torn tail is cut off). The
// substrate string versions the computation's semantics: bump it
// whenever results change and the whole persistent tier stops matching.
func Open[V any](dir, substrate string, opts ...Option) (*Store[V], error) {
	cfg := config{warnf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "runcache: "+format+"\n", args...)
	}}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Store[V]{
		dir:       dir,
		substrate: substrate,
		warnf:     cfg.warnf,
		tracer:    cfg.tracer,
		mem:       make(map[Key]entry[V]),
		inflight:  make(map[Key]*call[V]),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: creating %s: %w", dir, err)
	}
	for shard := 0; shard < numShards; shard++ {
		s.files[shard].Path = s.shardPath(shard)
		if err := s.loadShard(shard); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// shardPath names one shard's JSONL file.
func (s *Store[V]) shardPath(shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%02d.jsonl", shard))
}

// shardOf maps a key to its shard.
func shardOf(key Key) int { return shardlog.ShardOf(string(key), numShards) }

// loadShard reads one shard file into the memory tier, cutting off a
// torn tail. Damaged lines never fail the load: losing a cache line
// only costs a recomputation.
func (s *Store[V]) loadShard(shard int) error {
	path := s.files[shard].Path
	mid, tail, err := shardlog.Scan(path, true, s.warnf, func(payload []byte) error {
		var r record
		if err := json.Unmarshal(payload, &r); err != nil || r.Key == "" {
			return errors.New("runcache: entry has no key")
		}
		if r.Substrate != s.substrate {
			s.invalidated++
			return nil
		}
		var val V
		if err := json.Unmarshal(r.Value, &val); err != nil {
			return fmt.Errorf("runcache: undecodable cache value: %w", err)
		}
		s.mem[r.Key] = entry[V]{val: val, fromDisk: true}
		s.loaded++
		return nil
	})
	if err != nil {
		return err
	}
	for _, b := range mid {
		s.warnf("%s:%d: skipping damaged cache line: %v", path, b.No, b.Err)
	}
	s.corrupt += int64(len(mid) + len(tail))
	return nil
}

// Do returns the cached value for key, or runs compute exactly once —
// concurrent callers with the same key wait for the first computation
// and share its result. Errors are returned to every waiting caller and
// never cached.
func (s *Store[V]) Do(key Key, compute func() (V, error)) (V, error) {
	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		if e.fromDisk {
			s.diskHits.Add(1)
		} else {
			s.hits.Add(1)
		}
		s.mu.Unlock()
		disposition := "hit"
		if e.fromDisk {
			disposition = "disk"
		}
		s.trace(key, disposition)
		return e.val, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.shared.Add(1)
		s.mu.Unlock()
		s.trace(key, "shared")
		<-c.done
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()
	s.trace(key, "miss")

	c.val, c.err = compute()

	s.mu.Lock()
	delete(s.inflight, key)
	if c.err == nil {
		s.misses.Add(1)
		s.mem[key] = entry[V]{val: c.val}
	}
	s.mu.Unlock()
	if c.err == nil {
		s.persist(key, c.val)
	}
	close(c.done)
	return c.val, c.err
}

// trace emits one cache-lookup event. The disposition lives in the wall
// section: whether a key hits depends on what ran before, which is
// exactly the kind of environmental fact golden traces must ignore.
func (s *Store[V]) trace(key Key, disposition string) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(telemetry.Event{
		Kind:      telemetry.KindCacheLookup,
		Candidate: -1,
		Detail:    string(key),
		Wall:      &telemetry.Wall{Cache: disposition},
	})
}

// Len is the number of entries in the memory tier.
func (s *Store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats snapshots the counters.
func (s *Store[V]) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		DiskHits:    s.diskHits.Load(),
		Misses:      s.misses.Load(),
		Shared:      s.shared.Load(),
		Loaded:      s.loaded,
		Invalidated: s.invalidated,
		Corrupt:     s.corrupt,
	}
}

// persist appends one entry to its shard file. Failures degrade to a
// warning: the memory tier already holds the value.
func (s *Store[V]) persist(key Key, val V) {
	if s.dir == "" {
		return
	}
	payload, err := json.Marshal(val)
	if err != nil {
		s.warnf("marshaling value for %s: %v", key, err)
		return
	}
	line, err := shardlog.AppendLine(nil, record{Key: key, Substrate: s.substrate, Value: payload})
	if err != nil {
		s.warnf("encoding entry for %s: %v", key, err)
		return
	}
	f := &s.files[shardOf(key)]
	f.Lock()
	defer f.Unlock()
	if s.closed.Load() {
		return
	}
	if err := f.Append(line, false); err != nil {
		s.warnf("%v", err)
	}
}

// Close releases the shard file handles. The Store stays usable as a
// memory-only cache afterwards: it persists nothing more.
func (s *Store[V]) Close() error {
	s.closed.Store(true)
	return shardlog.CloseAll(s.files[:])
}
