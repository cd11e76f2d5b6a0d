// Package journal is the serving layer's durability primitive: a
// write-ahead session journal. Every advisor session appends its state
// transitions — create, suggest, observe, observe-failure, abort, end —
// as canonical JSONL records to one of N append-only disk shards
// (sharded by session id), so a crashed server can rebuild every live
// session by replaying its observation sequence into a fresh stepper.
// The deterministic-trace contract makes the replay exact: the same
// seed and observation sequence reproduce the same optimizer state,
// suggestion and trace, by construction.
//
// # Wire format
//
// The shard files are internal/shardlog's, the format the run cache
// shares: each line is one envelope object
//
//	{"crc":4118059357,"rec":{"sid":"s-000001","seq":0,"kind":"create",...}}
//
// where crc is the IEEE CRC-32 of the exact rec bytes. The CRC turns
// silent disk corruption into a detected, reported skip instead of a
// misreplayed session. A damaged or truncated final line — the torn
// tail a killed writer leaves — is truncated away and counted, never
// fatal; a damaged line in the middle of a shard is reported and the
// sessions whose record chains it breaks are dropped as damaged, while
// every other session recovers. On top of the lines this package keeps
// records, session chains, shard leases, snapshots and compaction.
//
// # Multi-replica shard claims
//
// N replicas on one host may point at one shared journal directory.
// Each shard is guarded by a lease file (lease-NN.json): a replica holds
// a shard while it keeps an exclusive flock(2) on that file, and serves
// exactly the shards it holds, so sessions partition across replicas
// with no session served by two processes. The kernel drops a dead
// holder's locks, so its shards are claimable at once, by any replica;
// a live holder's are never taken, whatever its replica name.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/shardlog"
)

// Kind names one session state transition.
type Kind string

// The record kinds, in session lifecycle order.
const (
	// KindCreate opens a session; Request carries the canonical session
	// request so recovery can rebuild the optimizer bit-identically.
	KindCreate Kind = "create"
	// KindSuggest records a planned suggestion handed to the client.
	// Replay regenerates it and asserts the index and step match — a
	// mismatch means the journal and the optimizer disagree, and the
	// session is reported damaged rather than silently diverged.
	KindSuggest Kind = "suggest"
	// KindSuggestBatch records a batch of concurrent suggestions handed
	// to the client by /nextbatch: K is the requested batch size, Indices
	// the candidate indices actually returned, in issue order. Replay
	// regenerates the batch with NextBatch(K) and asserts the indices
	// match, exactly as KindSuggest does for single suggestions.
	KindSuggestBatch Kind = "suggest_batch"
	// KindObserve records one accepted measurement. It is written (and
	// synced, under the always policy) before the client's observe is
	// acknowledged, so an acknowledged observation is never lost.
	KindObserve Kind = "observe"
	// KindObserveFailure records a failed measurement the session
	// quarantined and planned around.
	KindObserveFailure Kind = "observe_failure"
	// KindAbort ends a session by client request; recovery tombstones it.
	KindAbort Kind = "abort"
	// KindEnd ends a session any other terminal way (stop rule fired,
	// TTL eviction); Reason carries the disposition. Recovery tombstones
	// it. Graceful shutdown intentionally writes no end record: a
	// drained session is still live in the journal and the next boot
	// rehydrates it.
	KindEnd Kind = "end"
	// KindSnapshot is a seq-transparent checkpoint of one live session:
	// Request carries a Snapshot payload (config fingerprint, the
	// resume script and trace events, no ops), and Seq carries the
	// watermark without consuming it. Recovery replays the chain's ops
	// below the latest usable snapshot's watermark with the surrogate
	// fits skipped; compaction keeps every op and that snapshot alone.
	KindSnapshot Kind = "snapshot"
	// KindTombstoneIndex is a shard-level (not per-session) record
	// compaction writes: Tombstones lists every session id whose chain
	// was dropped from this shard, so ended sessions still answer 410
	// Gone after their records are gone. It is the only record kind with
	// no session id.
	KindTombstoneIndex Kind = "tombstone_index"
)

// Record is one journal entry. Session and Seq order it: a session's
// records carry contiguous sequence numbers from 0 (the create record),
// and recovery refuses chains with gaps.
type Record struct {
	Session string `json:"sid"`
	Seq     int    `json:"seq"`
	Kind    Kind   `json:"kind"`
	// Index is the candidate of a suggest/observe/observe_failure.
	Index int `json:"index,omitempty"`
	// Step is the suggestion's observation count (suggest records).
	Step int `json:"step,omitempty"`
	// K and Indices describe a suggest_batch record: the requested batch
	// size and the candidate indices returned, in issue order.
	K       int   `json:"k,omitempty"`
	Indices []int `json:"indices,omitempty"`
	// TimeSec/CostUSD/Metrics are an observe record's measurement.
	TimeSec float64   `json:"time_sec,omitempty"`
	CostUSD float64   `json:"cost_usd,omitempty"`
	Metrics []float64 `json:"metrics,omitempty"`
	// Reason is an observe_failure's cause or an end's disposition.
	Reason string `json:"reason,omitempty"`
	// Request is a create record's session request, verbatim JSON, or a
	// snapshot record's Snapshot payload.
	Request json.RawMessage `json:"request,omitempty"`
	// Tombstones is a tombstone_index record's dropped-session list.
	Tombstones []string `json:"tombs,omitempty"`
}

// Sync selects when appends reach the disk.
type Sync int

const (
	// SyncAlways fsyncs after every append: an acknowledged observation
	// survives kill -9. The durable default.
	SyncAlways Sync = iota
	// SyncNever leaves flushing to the OS: faster, loses the tail of
	// recent appends on a crash (recovery still works, clients just
	// re-measure the lost steps).
	SyncNever
)

// ParseSync maps the -fsync flag vocabulary onto policies.
func ParseSync(name string) (Sync, error) {
	switch name {
	case "always", "":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always or never)", name)
	}
}

func (s Sync) String() string {
	if s == SyncNever {
		return "never"
	}
	return "always"
}

// DefaultShards is the shard-file count a fresh journal directory gets.
const DefaultShards = 8

// ErrNotOwned reports an append for a session whose shard this replica
// holds no lease on.
var ErrNotOwned = errors.New("journal: session shard not owned by this replica")

// Option configures Open.
type Option func(*config)

type config struct {
	shards  int
	limit   int
	replica string
	sync    Sync
	warnf   func(format string, args ...any)
	leases  LeaseManager
	now     func() time.Time
}

// WithShards sets the shard count for a fresh journal directory. An
// existing directory's meta file wins — every replica must agree on the
// partition — and a mismatch is an explicit Open error.
func WithShards(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithClaimLimit caps how many shard leases this replica takes (0 = no
// cap, claim everything unclaimed). A deployment of R replicas over S
// shards runs each with a limit of S/R so the partition spreads: the
// first replica up does not starve the rest.
func WithClaimLimit(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.limit = n
		}
	}
}

// WithReplica names this replica in recovery reports and to a lease
// registry, which tracks grants by name. Filesystem leases ignore it: a
// live process holds its shards whatever it is called. The default is
// "host-<hostname>".
func WithReplica(id string) Option {
	return func(c *config) {
		if id != "" {
			c.replica = id
		}
	}
}

// WithSync sets the fsync policy.
func WithSync(s Sync) Option {
	return func(c *config) { c.sync = s }
}

// WithLeaseManager replaces the filesystem lease protocol with an
// external one — a registry client issuing time-bound, epoch-fenced
// grants. The default (nil) keeps the flock'd lease files.
func WithLeaseManager(m LeaseManager) Option {
	return func(c *config) { c.leases = m }
}

// WithNow injects the clock lease-expiry fencing reads. Tests use it to
// move a holder past its grant without sleeping.
func WithNow(now func() time.Time) Option {
	return func(c *config) {
		if now != nil {
			c.now = now
		}
	}
}

// WithWarnf routes non-fatal warnings (skipped damaged lines, lease
// oddities). The default writes to os.Stderr.
func WithWarnf(fn func(format string, args ...any)) Option {
	return func(c *config) {
		if fn != nil {
			c.warnf = fn
		}
	}
}

// meta pins the directory-wide constants every replica must share.
type meta struct {
	Shards int `json:"shards"`
}

// Journal is one replica's handle on a (possibly shared) journal
// directory: the shards it holds leases on, open for appending. Safe
// for concurrent use.
type Journal struct {
	dir     string
	replica string
	shards  int
	sync    Sync
	warnf   func(format string, args ...any)
	leases  LeaseManager
	now     func() time.Time

	// ownedMu guards owned and closed: the map is written at Open, by
	// Reclaim, TakeOver, RenewLeases, Reinstate and DropShard at runtime,
	// and by Close; every append and ownership check reads it. Once
	// closed is set, nothing enters the map again.
	ownedMu sync.RWMutex
	owned   map[int]Lease
	closed  bool

	files []shardlog.File
}

// Open claims shards in dir and returns the replica's journal handle.
// The directory is created if needed; its meta file fixes the shard
// count for every replica. Open never fails because another live
// replica holds some (or even all) leases — Owned reports what this
// replica got.
func Open(dir string, opts ...Option) (*Journal, error) {
	cfg := config{
		shards: DefaultShards,
		sync:   SyncAlways,
		warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "journal: "+format+"\n", args...)
		},
	}
	host, _ := os.Hostname()
	cfg.replica = "host-" + host
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	shards, err := loadOrInitMeta(dir, cfg.shards)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:     dir,
		replica: cfg.replica,
		shards:  shards,
		sync:    cfg.sync,
		warnf:   cfg.warnf,
		leases:  cfg.leases,
		now:     cfg.now,
		owned:   make(map[int]Lease),
		files:   make([]shardlog.File, shards),
	}
	for shard := range j.files {
		j.files[shard].Path = j.shardPath(shard)
	}
	if j.now == nil {
		j.now = time.Now
	}
	if j.leases == nil {
		j.leases = &fsLeases{dir: dir, held: make(map[int]*os.File)}
	}
	for shard := 0; shard < shards; shard++ {
		if cfg.limit > 0 && len(j.owned) >= cfg.limit {
			break
		}
		l, ok, err := j.leases.Acquire(shard)
		if err != nil {
			j.Close()
			return nil, err
		}
		if ok {
			l.Shard = shard
			j.owned[shard] = l
		}
	}
	return j, nil
}

// loadOrInitMeta reads the directory's shard count, publishing it first
// when the directory is fresh.
func loadOrInitMeta(dir string, want int) (int, error) {
	path := filepath.Join(dir, "journal.meta")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := publishMeta(dir, path, want); err != nil {
			return 0, err
		}
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil || m.Shards <= 0 {
		return 0, fmt.Errorf("journal: %s is damaged (%v); refusing to guess the shard partition", path, err)
	}
	return m.Shards, nil
}

// publishMeta writes a fresh directory's meta file whole: it fills a
// temp file and hard-links it into place, so a replica opening the
// directory concurrently finds no meta file or a complete one, never an
// empty one. A link, unlike a rename, never replaces an existing file:
// when another replica published first, its shard count stands.
func publishMeta(dir, path string, shards int) error {
	tmp, err := os.CreateTemp(dir, "journal.meta.tmp-*")
	if err != nil {
		return fmt.Errorf("journal: creating %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	payload, _ := json.Marshal(meta{Shards: shards})
	_, werr := tmp.Write(append(payload, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		return fmt.Errorf("journal: writing %s: %v/%v", tmp.Name(), werr, cerr)
	}
	if err := os.Link(tmp.Name(), path); err != nil && !os.IsExist(err) {
		return fmt.Errorf("journal: publishing %s: %w", path, err)
	}
	return nil
}

// Replica returns this handle's replica name.
func (j *Journal) Replica() string { return j.replica }

// Shards returns the directory's shard count.
func (j *Journal) Shards() int { return j.shards }

// SyncPolicy returns the fsync policy appends follow.
func (j *Journal) SyncPolicy() Sync { return j.sync }

// Owned lists the shard numbers this replica holds leases on, sorted.
func (j *Journal) Owned() []int {
	j.ownedMu.RLock()
	out := make([]int, 0, len(j.owned))
	for shard := range j.owned {
		out = append(out, shard)
	}
	j.ownedMu.RUnlock()
	sort.Ints(out)
	return out
}

// ShardOf maps a session id onto its shard in an n-shard directory.
func ShardOf(session string, n int) int { return shardlog.ShardOf(session, n) }

// Owns reports whether this replica holds a live lease for the
// session's shard — i.e. whether it may serve and journal this session.
// An expired (unrenewed) grant does not count: the shard may already
// have been re-granted elsewhere.
func (j *Journal) Owns(session string) bool {
	return j.ownsShard(ShardOf(session, j.shards))
}

// ownsShard reads the ownership map under its lock.
func (j *Journal) ownsShard(shard int) bool {
	l, ok := j.leaseFor(shard)
	return ok && !l.Expired(j.now())
}

// leaseFor reads one shard's grant under the ownership lock.
func (j *Journal) leaseFor(shard int) (Lease, bool) {
	j.ownedMu.RLock()
	defer j.ownedMu.RUnlock()
	l, ok := j.owned[shard]
	return l, ok
}

// Lease returns the grant this replica holds on a shard, if any.
func (j *Journal) Lease(shard int) (Lease, bool) {
	return j.leaseFor(shard)
}

// Dir returns the journal directory path.
func (j *Journal) Dir() string { return j.dir }

func (j *Journal) shardPath(shard int) string { return shardPath(j.dir, shard) }

func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%02d.jsonl", shard))
}

// Append writes records of one session to its shard as one unit: one
// write and, under SyncAlways, one sync, fenced like AppendShard. It is
// write-ahead: callers acknowledge the transitions to their client only
// after Append returns. A serve request passes every record it produces
// in one call, so an observation and the suggestion it unlocks share one
// fsync. A call carrying records of two sessions is refused and writes
// nothing; an empty call writes nothing.
func (j *Journal) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	for _, r := range recs[1:] {
		if r.Session != recs[0].Session {
			return fmt.Errorf("journal: one append carries records of sessions %q and %q", recs[0].Session, r.Session)
		}
	}
	return j.appendBatch(ShardOf(recs[0].Session, j.shards), recs)
}

// AppendShard is Append of one record targeted at an explicit shard —
// for tombstone_index records, which carry no session id. The same
// ownership and expiry fencing applies, checked under the shard's file
// mutex: DropShard takes that mutex too, so once a drop returns no
// append can still land in the shard, not even one that was already
// waiting for the mutex.
func (j *Journal) AppendShard(shard int, rec Record) error {
	return j.appendBatch(shard, []Record{rec})
}

// appendBatch writes recs to the shard with one write and at most one
// sync, fenced as AppendShard describes. A refused batch writes no
// bytes.
func (j *Journal) appendBatch(shard int, recs []Record) error {
	sid := recs[0].Session
	if shard < 0 || shard >= j.shards {
		return fmt.Errorf("%w: session %q, shard %d of %d", ErrNotOwned, sid, shard, j.shards)
	}
	var batch []byte
	for _, rec := range recs {
		var err error
		if batch, err = shardlog.AppendLine(batch, rec); err != nil {
			return err
		}
	}
	sf := &j.files[shard]
	sf.Lock()
	defer sf.Unlock()
	l, held := j.leaseFor(shard)
	if !held {
		return fmt.Errorf("%w: session %q, shard %d", ErrNotOwned, sid, shard)
	}
	if l.Expired(j.now()) {
		return fmt.Errorf("%w: session %q, shard %d, epoch %d", ErrLeaseExpired, sid, shard, l.Epoch)
	}
	return sf.Append(batch, j.sync == SyncAlways)
}

// EncodeLine renders one record as its newline-terminated shard line.
func EncodeLine(rec Record) ([]byte, error) {
	return shardlog.AppendLine(nil, rec)
}

// DecodeLine parses and checksum-verifies one shard line.
func DecodeLine(line []byte) (Record, error) {
	payload, err := shardlog.Decode(line)
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(payload)
}

// decodeRecord parses and checks the record a verified line carries.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("journal: undecodable record: %w", err)
	}
	if rec.Session == "" && rec.Kind != KindTombstoneIndex {
		return Record{}, errors.New("journal: record has no session id")
	}
	if rec.Seq < 0 {
		return Record{}, fmt.Errorf("journal: record has negative seq %d", rec.Seq)
	}
	return rec, nil
}

// SessionLog is one recoverable session: its records in seq order,
// starting with the create record.
type SessionLog struct {
	ID      string
	Records []Record
}

// Recovery is what a Scan found in this replica's shards.
type Recovery struct {
	// Live holds the sessions with no terminal record, replayable.
	Live []SessionLog
	// Ended lists session ids whose journal says ended or aborted; the
	// serving layer answers 410 Gone for them.
	Ended []string
	// Damage reports every problem found: mid-file corrupt lines,
	// broken record chains. One entry per problem, human-readable.
	Damage []string
	// Tombstones lists, once each, the session ids recorded in
	// tombstone_index records: sessions compaction dropped from a shard
	// after they ended, or drained away and ended elsewhere. The serving
	// layer answers 410 Gone for them whether or not a stale chain is
	// left to scan; such a chain is in no other list.
	Tombstones []string
	// TruncatedTails counts shard files whose torn final line was
	// truncated away (the normal aftermath of kill -9 mid-write).
	TruncatedTails int
}

// Scan reads every owned shard, truncating torn tails, verifying CRCs
// and record chains, and returns the recoverable state. Sessions whose
// chains are broken by damage land in Damage, not in Live — a session
// either replays exactly or not at all.
func (j *Journal) Scan() (*Recovery, error) {
	return j.ScanShards(j.Owned())
}

// ScanShards is Scan over an explicit shard list — the reclaim path
// scans just the shards it took over from a dead peer.
func (j *Journal) ScanShards(shards []int) (*Recovery, error) {
	rec, _, err := readShards(j.dir, shards, true, j.warnf)
	return rec, err
}

// ScanDir scans explicit shards of a foreign journal directory
// read-only — no torn-tail truncation, no newline repair — so a
// replica that reclaimed a dead cross-host peer's shards can adopt the
// sessions from the peer's (reattached or shared) journal directory
// without mutating it. The directory's meta must agree on the shard
// count.
func ScanDir(dir string, shards []int, warnf func(format string, args ...any)) (*Recovery, error) {
	if warnf == nil {
		warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "journal: "+format+"\n", args...)
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "journal.meta")); err == nil {
		var m meta
		if jerr := json.Unmarshal(data, &m); jerr == nil && m.Shards > 0 {
			for _, shard := range shards {
				if shard >= m.Shards {
					return nil, fmt.Errorf("journal: %s has %d shards, cannot scan shard %d", dir, m.Shards, shard)
				}
			}
		}
	}
	rec, _, err := readShards(dir, shards, false, warnf)
	return rec, err
}

// ReadImage reads shard lines from r — a drain's stream, as Image
// renders it — with the scan recovery uses, and partitions the chains
// as Scan does. It only reads: bad lines land in Damage and a torn tail
// in TruncatedTails, as a read-only ScanDir reports them. It fails only
// when reading r does.
func ReadImage(r io.Reader) (*Recovery, error) {
	c := &collector{bySession: make(map[string][]Record)}
	mid, tail, _, _, err := shardlog.ScanReader(r, c.use)
	if err != nil {
		return nil, fmt.Errorf("journal: reading image: %w", err)
	}
	c.bad("image", mid, tail)
	return c.partition(), nil
}

// readShards reads shards of dir (repairing torn tails and lost final
// newlines when repair is set) and partitions the chains they hold.
// order lists every session id seen, in first-seen order.
func readShards(dir string, shards []int, repair bool, warnf func(format string, args ...any)) (rec *Recovery, order []string, err error) {
	c := &collector{bySession: make(map[string][]Record)}
	for _, shard := range shards {
		path := shardPath(dir, shard)
		mid, tail, err := shardlog.Scan(path, repair, warnf, c.use)
		if err != nil {
			return nil, nil, err
		}
		c.bad(path, mid, tail)
	}
	return c.partition(), c.order, nil
}

// collector gathers scanned records into per-session chains and sorts
// them into a Recovery: the one record collector and partition behind
// every scan, of shard files and of streams alike.
type collector struct {
	rec       Recovery
	bySession map[string][]Record
	order     []string // every session id seen, in first-seen order
}

// use is the scan's per-line hook: it decodes a verified line's record
// and files it under its session, or its ids under the tombstones.
func (c *collector) use(payload []byte) error {
	r, err := decodeRecord(payload)
	switch {
	case err != nil:
		return err
	case r.Kind == KindTombstoneIndex:
		// Shard-level record, not part of any session chain.
		c.rec.Tombstones = append(c.rec.Tombstones, r.Tombstones...)
	default:
		if _, seen := c.bySession[r.Session]; !seen {
			c.order = append(c.order, r.Session)
		}
		c.bySession[r.Session] = append(c.bySession[r.Session], r)
	}
	return nil
}

// bad reports one scan's bad lines, naming them by source and line.
func (c *collector) bad(source string, mid, tail []shardlog.BadLine) {
	for _, b := range mid {
		c.rec.Damage = append(c.rec.Damage, fmt.Sprintf("%s:%d: %v", source, b.No, b.Err))
	}
	if len(tail) > 0 {
		c.rec.TruncatedTails++
		// A multi-line damaged suffix is more than one crash's torn
		// write; surface the extra lines as damage so heavy tail
		// corruption stays visible while recovery still proceeds.
		for _, b := range tail[1:] {
			c.rec.Damage = append(c.rec.Damage, fmt.Sprintf("%s:%d: truncated with tail: %v", source, b.No, b.Err))
		}
	}
}

// partition validates every chain and sorts it into Live, Ended or
// Damage. A chain the scanned tombstone index names is ended, whatever
// it holds — a session drained away, ended on the successor and drained
// back leaves its old live chain here beside the tombstone — and is
// reported once, in Tombstones only.
func (c *collector) partition() *Recovery {
	tombstoned := make(map[string]bool, len(c.rec.Tombstones))
	ids := c.rec.Tombstones[:0]
	for _, id := range c.rec.Tombstones {
		if !tombstoned[id] {
			tombstoned[id] = true
			ids = append(ids, id)
		}
	}
	c.rec.Tombstones = ids
	for _, id := range c.order {
		if tombstoned[id] {
			continue
		}
		log, ended, problem := ValidateChain(id, c.bySession[id])
		switch {
		case problem != "":
			c.rec.Damage = append(c.rec.Damage, problem)
		case ended:
			c.rec.Ended = append(c.rec.Ended, id)
		default:
			c.rec.Live = append(c.rec.Live, log)
		}
	}
	return &c.rec
}

// ValidateChain sorts one session's records in place into chain order
// — by seq, a snapshot before the op that shares its seq — and checks
// them: contiguous seqs from 0, a create first, create only first,
// terminal records terminal. Snapshot records are seq-transparent: one
// carries the session's watermark, the seq of the op journaled right
// after it, without consuming a seq. A snapshot is accepted only at the
// chain's next seq, and its payload is not read here, because a
// snapshot never stands in for an op. Sorting snapshots first lets two
// copies of a chain in one shard, only one of them holding a given
// snapshot, merge back into one chain. It returns the replayable log,
// whether the session ended, or a non-empty damage report.
func ValidateChain(id string, records []Record) (SessionLog, bool, string) {
	sort.SliceStable(records, func(a, b int) bool {
		if records[a].Seq != records[b].Seq {
			return records[a].Seq < records[b].Seq
		}
		return records[a].Kind == KindSnapshot && records[b].Kind != KindSnapshot
	})
	records = dedupeSorted(records)
	if len(records) == 0 {
		return SessionLog{}, false, fmt.Sprintf("session %s: no records", id)
	}
	ended := false
	expect := 0 // the next seq a seq-consuming record must carry
	for i, r := range records {
		if ended {
			return SessionLog{}, false, fmt.Sprintf("session %s: record after terminal record at seq %d; dropping session", id, r.Seq)
		}
		if r.Kind == KindSnapshot {
			if i == 0 {
				return SessionLog{}, false, fmt.Sprintf("session %s: snapshot before create record; dropping session", id)
			}
			if r.Seq != expect {
				return SessionLog{}, false, fmt.Sprintf("session %s: snapshot at seq %d off the chain's next seq %d; dropping session", id, r.Seq, expect)
			}
			continue
		}
		if (r.Kind == KindCreate) != (i == 0) {
			return SessionLog{}, false, fmt.Sprintf("session %s: create record out of place at seq %d; dropping session", id, r.Seq)
		}
		if r.Seq != expect {
			return SessionLog{}, false, fmt.Sprintf("session %s: record chain broken at seq %d (found %d); dropping session", id, expect, r.Seq)
		}
		expect++
		if r.Kind == KindEnd || r.Kind == KindAbort {
			ended = true
		}
	}
	return SessionLog{ID: id, Records: records}, ended, ""
}

// dedupeSorted drops byte-identical duplicate records from one
// session's seq-sorted chain, keeping the first of each. Cross-host
// adoption re-journals a reclaimed chain into the survivor's own
// directory, and a shard that bounces back delivers the same records
// twice; the records are byte-identical by the deterministic-trace
// contract, so dropping the copies is exact. Two records sharing a seq
// with *different* bytes are left in place for ValidateChain to report
// as a broken chain. A chain without duplicates comes back as it is.
func dedupeSorted(records []Record) []Record {
	var out []Record // nil until the first duplicate
	group := 0       // where the current seq's records start
	for i, r := range records {
		if i == 0 || r.Seq != records[i-1].Seq {
			group = i
		}
		if !duplicateOf(r, records[group:i]) {
			if out != nil {
				out = append(out, r)
			}
			continue
		}
		if out == nil {
			out = append(make([]Record, 0, len(records)), records[:i]...)
		}
	}
	if out == nil {
		return records
	}
	return out
}

// duplicateOf reports whether r is byte-identical to one of earlier, the
// records before it that share its seq. Only records of r's kind can be,
// so only those are marshaled: a seq held by one record, or by a
// snapshot and the op after it, costs nothing.
func duplicateOf(r Record, earlier []Record) bool {
	var line []byte
	for _, prev := range earlier {
		if prev.Kind != r.Kind {
			continue
		}
		if line == nil {
			var err error
			if line, err = json.Marshal(r); err != nil {
				return false
			}
		}
		if p, err := json.Marshal(prev); err == nil && bytes.Equal(p, line) {
			return true
		}
	}
	return false
}

// RenewLeases extends every held grant through the manager and drops
// the ones the manager reports lost (expired and re-granted elsewhere).
// It returns the shards dropped, sorted; the serving layer evicts their
// sessions. A manager error keeps the grant — local expiry fencing
// stops appends on its own if the outage outlasts the TTL.
func (j *Journal) RenewLeases() ([]int, error) {
	var lost []int
	var firstErr error
	for _, shard := range j.Owned() {
		l, held := j.leaseFor(shard)
		if !held {
			continue
		}
		dropped, err := j.renew(l, false)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			j.warnf("renewing lease %d: %v", shard, err)
		}
		if dropped {
			lost = append(lost, shard)
		}
	}
	return lost, firstErr
}

// Reinstate puts back a grant the caller set aside with DropShard — a
// shard hand-off that did not go through — after re-verifying it with
// the manager. held=false means the manager reports the grant lost (a
// successor took the shard over and only the answer went missing): the
// shard stays dropped and the caller must evict its sessions. A closed
// journal reinstates nothing and answers held=false too. A manager error
// reinstates the grant, as in RenewLeases.
func (j *Journal) Reinstate(l Lease) (held bool, err error) {
	dropped, err := j.renew(l, true)
	return !dropped, err
}

// renew is the per-grant step RenewLeases and Reinstate share: the grant
// is renewed, kept on a manager error (local expiry still fences), or
// dropped when the manager reports it lost. Only a reinstatement may put
// a grant back; a renewal that finds its shard dropped or re-granted
// meanwhile leaves it alone, so a heartbeat cannot revive a shard a
// drain set aside mid-hand-off. It reports whether it dropped the grant.
func (j *Journal) renew(l Lease, reinstate bool) (dropped bool, err error) {
	nl, ok, err := j.leases.Renew(l)
	if err != nil {
		nl, ok = l, true
	}
	nl.Shard = l.Shard
	j.ownedMu.Lock()
	defer j.ownedMu.Unlock()
	cur, held := j.owned[l.Shard]
	switch {
	case held && cur.Epoch != l.Epoch, !held && !reinstate:
		return false, err
	case ok && !j.closed:
		j.owned[l.Shard] = nl
		return false, err
	default:
		delete(j.owned, l.Shard)
		return true, err
	}
}

// DropShard forgets a shard locally without releasing the grant, and
// returns the grant it set aside. It is a hard fence: it takes the
// shard's file mutex after forgetting the grant, so once it returns no
// append can land in the shard. A drain drops the shard before reading
// it for the hand-off and passes the grant to Reinstate if the hand-off
// fails; on success the grant already belongs to the successor, and
// releasing it here would yank it back out from under them.
func (j *Journal) DropShard(shard int) (Lease, bool) {
	j.ownedMu.Lock()
	l, held := j.owned[shard]
	delete(j.owned, shard)
	j.ownedMu.Unlock()
	sf := &j.files[shard]
	sf.Lock()
	sf.Close()
	sf.Unlock()
	return l, held
}

// TakeOver claims a shard directly from its current holder through the
// manager's transfer extension, fenced by the holder's epoch — the
// migrate-in path. ok=false without error means the transfer was
// refused (stale epoch, holder changed) or the journal is closed, which
// releases the transferred grant.
func (j *Journal) TakeOver(shard int, from string, fromEpoch uint64) (Lease, bool, error) {
	tl, can := j.leases.(TransferLeaser)
	if !can {
		return Lease{}, false, fmt.Errorf("journal: lease manager %T does not support transfers", j.leases)
	}
	l, ok, err := tl.Transfer(shard, from, fromEpoch)
	if err != nil || !ok {
		return Lease{}, false, err
	}
	l.Shard = shard
	if !j.own(l) {
		return Lease{}, false, nil
	}
	return l, true, nil
}

// Reclaim attempts to take over every shard this replica does not own,
// claiming only grants the manager says are up for grabs (a lease file
// no live process has locked, or a registry grant past its TTL). It
// returns the grants newly claimed, sorted by shard; each carries the
// previous holder's journal directory so the caller can scan and adopt
// the shard's live sessions even when the dead peer journaled elsewhere.
// A closed journal claims nothing.
func (j *Journal) Reclaim() ([]Lease, error) {
	var claimed []Lease
	for shard := 0; shard < j.shards; shard++ {
		if _, held := j.leaseFor(shard); held {
			continue
		}
		l, ok, err := j.leases.Acquire(shard)
		if err != nil {
			j.warnf("reclaiming shard %d: %v", shard, err)
			continue
		}
		if !ok {
			continue
		}
		l.Shard = shard
		if !j.own(l) {
			// Closed meanwhile, and Close released the grants claimed so far.
			return nil, nil
		}
		claimed = append(claimed, l)
	}
	sort.Slice(claimed, func(a, b int) bool { return claimed[a].Shard < claimed[b].Shard })
	return claimed, nil
}

// own records a newly won grant, unless the journal is closed: then it
// releases the grant and reports false, so a claim racing Close leaves
// nothing held.
func (j *Journal) own(l Lease) bool {
	j.ownedMu.Lock()
	closed := j.closed
	if !closed {
		j.owned[l.Shard] = l
	}
	j.ownedMu.Unlock()
	if closed {
		if err := j.leases.Release(l); err != nil {
			j.warnf("releasing lease %d: %v", l.Shard, err)
		}
	}
	return !closed
}

// Close releases the shard leases and file handles. A closed journal
// owns nothing: Append returns ErrNotOwned, and Reclaim, TakeOver and
// Reinstate claim nothing. Like DropShard, Close forgets the grants
// before taking each shard's file mutex, so no append lands after the
// grants are released.
func (j *Journal) Close() error {
	j.ownedMu.Lock()
	if j.closed {
		j.ownedMu.Unlock()
		return nil
	}
	j.closed = true
	grants := j.owned
	j.owned = make(map[int]Lease)
	j.ownedMu.Unlock()
	firstErr := shardlog.CloseAll(j.files)
	if fs, ok := j.leases.(*fsLeases); ok {
		// Every lock the journal's own manager holds is this process's,
		// a shard DropShard set aside included: nobody else can hold it.
		fs.releaseAll()
		return firstErr
	}
	// An injected manager gets back only the grants still owned: a
	// grant DropShard set aside may already belong to the drain's
	// successor.
	for shard, l := range grants {
		if err := j.leases.Release(l); err != nil {
			j.warnf("releasing lease %d: %v", shard, err)
		}
	}
	return firstErr
}
