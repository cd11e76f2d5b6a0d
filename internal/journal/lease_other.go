//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package journal

import (
	"fmt"
	"os"
	"runtime"
)

// lockLease refuses: filesystem shard leases are flock(2) locks, which
// this platform's syscall package does not offer.
func lockLease(path string) (*os.File, bool, error) {
	return nil, false, fmt.Errorf("journal: filesystem shard leases need flock, which %s lacks; lease shards from a registry instead (arrow-serve -registry-addr)", runtime.GOOS)
}
