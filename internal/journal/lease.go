//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package journal

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockLease opens a shard's lease file, creating it if needed, and takes
// an exclusive, non-blocking flock on it. ok=false without error means
// another open file description holds the lock: a live holder, in this
// process or another. The caller keeps f open for the grant's lifetime;
// closing it (or the holder dying) drops the lock. The file's bytes are
// not part of the protocol.
func lockLease(path string) (f *os.File, ok bool, err error) {
	f, err = os.OpenFile(path, os.O_CREATE|os.O_RDONLY, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("journal: opening lease %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("journal: locking lease %s: %w", path, err)
	}
	return f, true, nil
}
