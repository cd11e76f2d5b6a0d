package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Lease is one shard-ownership grant. The filesystem manager issues
// open-ended grants (zero Expiry, epoch 1 — a kernel lock the holder
// keeps until it releases the grant or dies is the fence); a network
// registry issues time-bound grants with monotone epochs so a
// paused-then-resumed holder can be fenced off after its grant lapses.
type Lease struct {
	Shard int
	// Epoch is the fencing token: the registry bumps it on every grant
	// and transfer, so any write stamped with a stale epoch (or made
	// after local expiry) identifies a holder that lost the shard.
	Epoch uint64
	// Expiry is when this grant lapses on the holder's own clock; zero
	// means it never does. Holders renew well before it and stop
	// appending once it passes.
	Expiry time.Time
	// PrevReplica/PrevAddr/PrevDataDir describe the previous holder, as
	// recorded by the grantor: after a takeover the new owner scans
	// PrevDataDir (the dead peer's journal directory, reattached or
	// shared) to adopt the shard's sessions. Empty when the shard was
	// never held or the previous holder shares this journal directory.
	PrevReplica string
	PrevAddr    string
	PrevDataDir string
}

// Expired reports whether the grant has lapsed at now. Open-ended
// grants never expire.
func (l Lease) Expired(now time.Time) bool {
	return !l.Expiry.IsZero() && !now.Before(l.Expiry)
}

// ErrLeaseExpired reports an append attempted under a lapsed lease: the
// shard may already belong to another replica, so the write must fail
// before it is acknowledged, not after.
var ErrLeaseExpired = errors.New("journal: shard lease expired")

// LeaseManager is the shard-ownership protocol a Journal claims through.
// The default is the filesystem manager (flock(2) locks on lease files,
// for processes on one host); a registry client implements the same
// interface over HTTP for cross-host clusters.
type LeaseManager interface {
	// Acquire tries to take one shard. ok=false without error means a
	// live holder keeps it.
	Acquire(shard int) (l Lease, ok bool, err error)
	// Renew extends a held grant. ok=false means the grant was lost
	// (expired and re-granted, or epoch superseded): the holder must
	// drop the shard and re-Acquire for a fresh epoch.
	Renew(l Lease) (Lease, bool, error)
	// Release gives a grant back.
	Release(l Lease) error
}

// TransferLeaser is the optional migration extension: hand a shard from
// its current holder directly to a successor, fenced by the holder's
// epoch, without waiting for expiry.
type TransferLeaser interface {
	Transfer(shard int, from string, fromEpoch uint64) (Lease, bool, error)
}

// fsLeases is the default manager: replicas on one host sharing a
// journal directory coordinate through flock(2) locks on the shard lease
// files. A grant is the open, locked descriptor; Release closes it, and
// the kernel drops the lock when the holder dies, so a crashed holder's
// shard is claimable at once and there is no stale lease to break.
// Grants are open-ended with a constant epoch, and PrevDataDir is the
// shared directory itself, so adoption scans locally.
//
// Lease files are never unlinked. A claimant that opened the path just
// before an unlink would lock the orphaned inode while the next claimant
// locks a fresh file at the same path: two holders of one shard.
type fsLeases struct {
	dir  string
	mu   sync.Mutex       // guards held: a Reclaim may race Close
	held map[int]*os.File // each granted shard's locked descriptor
}

func (m *fsLeases) Acquire(shard int) (Lease, bool, error) {
	f, ok, err := lockLease(filepath.Join(m.dir, fmt.Sprintf("lease-%02d.json", shard)))
	if err != nil || !ok {
		return Lease{}, false, err
	}
	m.mu.Lock()
	m.held[shard] = f
	m.mu.Unlock()
	return Lease{Shard: shard, Epoch: 1, PrevDataDir: m.dir}, true, nil
}

func (m *fsLeases) Renew(l Lease) (Lease, bool, error) {
	// Open-ended grants need no renewal; the holder's death revokes them.
	return l, true, nil
}

func (m *fsLeases) Release(l Lease) error {
	m.mu.Lock()
	f := m.held[l.Shard]
	delete(m.held, l.Shard)
	m.mu.Unlock()
	if f == nil {
		return nil // releaseAll got there first
	}
	return f.Close()
}

// releaseAll drops every lock still held.
func (m *fsLeases) releaseAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for shard, f := range m.held {
		f.Close()
		delete(m.held, shard)
	}
}
