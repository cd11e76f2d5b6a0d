package journal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// leaseHolderEnv makes the test binary a lease holder instead of a test
// run: it opens a two-shard journal in the directory the variable names,
// prints how many shards it owns, and holds them until its stdin closes
// or it is killed.
const leaseHolderEnv = "JOURNAL_TEST_LEASE_HOLDER_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(leaseHolderEnv); dir != "" {
		j, err := Open(dir, WithReplica("alpha"), WithShards(2))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("owned %d\n", len(j.Owned()))
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startLeaseHolder starts a replica process named "alpha" over dir and
// waits until it owns both shards. The process exits when the test ends,
// if the test has not killed it first.
func startLeaseHolder(t *testing.T, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), leaseHolderEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if line != "owned 2\n" || err != nil {
		t.Fatalf("holder process said %q (%v), want it to own both shards", line, err)
	}
	return cmd
}

// leaseFile is the path of a shard's lease file.
func leaseFile(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("lease-%02d.json", shard))
}

// deadPIDLease is a lease file as the pid-checked protocol of earlier
// versions left it behind for a holder that died.
const deadPIDLease = `{"replica":"ghost","pid":1073741824,"acquired":"2026-01-01T00:00:00Z"}` + "\n"

// TestJournalLeaseClaimRaceOneWinner: claimants racing for a shard whose
// lease file a dead holder left behind end with exactly one holder in
// every round, whether they race at Open or, opened while the holder
// lived, in a runtime Reclaim. Each claimant has its own handle and
// replica name. Breaking a stale lease by removing its path and creating
// it again let a slow claimant remove a fast one's fresh lease and win
// as well.
func TestJournalLeaseClaimRaceOneWinner(t *testing.T) {
	const rounds = 2000
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("claimants-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			openAll(t, dir, WithShards(1)).Close()
			lease := leaseFile(dir, 0)
			for round := 0; round < rounds; round++ {
				reclaim := round%2 == 1
				claimants := make([]*Journal, n)
				if reclaim {
					holder := openAll(t, dir, WithReplica("holder"))
					for i := range claimants {
						claimants[i] = openAll(t, dir, WithReplica(fmt.Sprintf("c%d", i)))
					}
					holder.Close()
				}
				if err := os.WriteFile(lease, []byte(deadPIDLease), 0o644); err != nil {
					t.Fatal(err)
				}
				start := make(chan struct{})
				errs := make([]error, n)
				var wg sync.WaitGroup
				for i := range claimants {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						<-start
						if reclaim {
							_, errs[i] = claimants[i].Reclaim()
						} else {
							claimants[i], errs[i] = Open(dir, WithReplica(fmt.Sprintf("c%d", i)))
						}
					}(i)
				}
				close(start)
				wg.Wait()
				winners := 0
				for i, j := range claimants {
					if errs[i] != nil {
						t.Fatalf("round %d: claimant %d: %v", round, i, errs[i])
					}
					winners += len(j.Owned())
				}
				for _, j := range claimants {
					j.Close()
				}
				if winners != 1 {
					t.Fatalf("round %d (reclaim %v): %d of %d claimants won the shard, want exactly one", round, reclaim, winners, n)
				}
			}
		})
	}
}

// TestJournalSameReplicaSecondOpenOwnsNothing: a live handle keeps its
// shards whatever the name of the next claimant. A second handle opened
// under the same replica name owns nothing until the first closes; then
// its Reclaim takes every shard.
func TestJournalSameReplicaSecondOpenOwnsNothing(t *testing.T) {
	dir := t.TempDir()
	first := openAll(t, dir, WithReplica("alpha"), WithShards(4))
	second := openAll(t, dir, WithReplica("alpha"))
	if got := second.Owned(); len(got) != 0 {
		t.Fatalf("second open under the same name owns %v while the first is open, want nothing", got)
	}
	first.Close()
	claimed, err := second.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed) != 4 || len(second.Owned()) != 4 {
		t.Fatalf("after the first closed, the second reclaimed %v and owns %v; want all 4 shards", claimed, second.Owned())
	}
}

// TestJournalLeftoverLeaseFilesClaimable: a lease file's bytes are not
// part of the protocol. Files no live process has locked are claimable
// whatever they hold, a pid-format lease naming a live process included,
// and Close leaves every lease file in place.
func TestJournalLeftoverLeaseFilesClaimable(t *testing.T) {
	dir := t.TempDir()
	openAll(t, dir, WithShards(4)).Close()
	contents := []string{
		fmt.Sprintf(`{"replica":"ghost","pid":%d,"acquired":"2026-01-01T00:00:00Z"}`+"\n", os.Getpid()),
		deadPIDLease,
		"\x00{not a lease",
		"",
	}
	for shard, c := range contents {
		if err := os.WriteFile(leaseFile(dir, shard), []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j := openAll(t, dir, WithReplica("beta"))
	if got := j.Owned(); len(got) != len(contents) {
		t.Fatalf("owns %v over leftover lease files, want all %d shards", got, len(contents))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for shard := range contents {
		if _, err := os.Stat(leaseFile(dir, shard)); err != nil {
			t.Fatalf("lease file of shard %d after Close: %v", shard, err)
		}
	}
}

// TestJournalConcurrentFirstOpensAgree: replicas opening a fresh
// directory at once all succeed and agree on its shard count, whichever
// count each asked for. No replica may read the meta file half-written.
func TestJournalConcurrentFirstOpensAgree(t *testing.T) {
	const rounds, replicas = 500, 4
	root := t.TempDir()
	for round := 0; round < rounds; round++ {
		dir := filepath.Join(root, strconv.Itoa(round))
		handles := make([]*Journal, replicas)
		errs := make([]error, replicas)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range handles {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				handles[i], errs[i] = Open(dir, WithReplica(fmt.Sprintf("r%d", i)), WithShards(i+1))
			}(i)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: replica %d: %v", round, i, err)
			}
		}
		for _, j := range handles {
			if j.Shards() != handles[0].Shards() {
				t.Fatalf("round %d: replicas disagree on the shard count: %d vs %d", round, j.Shards(), handles[0].Shards())
			}
		}
		for _, j := range handles {
			j.Close()
		}
	}
}

// stallLeases grants and transfers every shard and records releases.
// Once stall is set, Acquire reports entering and waits for proceed, so
// a test can close the journal while a claim is in flight.
type stallLeases struct {
	mu       sync.Mutex
	stall    bool
	entered  chan struct{}
	proceed  chan struct{}
	released []int
}

func (m *stallLeases) Acquire(shard int) (Lease, bool, error) {
	m.mu.Lock()
	stall := m.stall
	m.mu.Unlock()
	if stall {
		m.entered <- struct{}{}
		<-m.proceed
	}
	return Lease{Shard: shard, Epoch: 1}, true, nil
}

func (m *stallLeases) Renew(l Lease) (Lease, bool, error) { return l, true, nil }

func (m *stallLeases) Release(l Lease) error {
	m.mu.Lock()
	m.released = append(m.released, l.Shard)
	m.mu.Unlock()
	return nil
}

func (m *stallLeases) Transfer(shard int, from string, fromEpoch uint64) (Lease, bool, error) {
	return Lease{Shard: shard, Epoch: fromEpoch + 1}, true, nil
}

// TestJournalClosedDuringClaimReleasesGrant: a grant the manager hands
// out while Close runs is released rather than owned, and a transfer
// into a closed journal is refused and released too.
func TestJournalClosedDuringClaimReleasesGrant(t *testing.T) {
	m := &stallLeases{entered: make(chan struct{}), proceed: make(chan struct{})}
	j := openAll(t, t.TempDir(), WithShards(2), WithClaimLimit(1), WithLeaseManager(m))
	m.stall = true
	type result struct {
		claimed []Lease
		err     error
	}
	reclaimed := make(chan result, 1)
	go func() {
		claimed, err := j.Reclaim()
		reclaimed <- result{claimed, err}
	}()
	<-m.entered
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	close(m.proceed)
	if r := <-reclaimed; len(r.claimed) != 0 || r.err != nil {
		t.Fatalf("Reclaim racing Close = %v, %v; want nothing claimed", r.claimed, r.err)
	}
	if l, ok, err := j.TakeOver(1, "peer", 3); ok || err != nil {
		t.Fatalf("TakeOver into a closed journal = %+v, %v, %v; want refused", l, ok, err)
	}
	if got := j.Owned(); len(got) != 0 {
		t.Fatalf("closed journal owns %v", got)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if fmt.Sprint(m.released) != "[0 1 1]" {
		t.Fatalf("released %v, want shard 0 by Close and shard 1 after the in-flight claim and the transfer", m.released)
	}
}

// TestCloseReleasesSetAsideFilesystemLease: a filesystem lease is this
// process's lock whether or not the shard is still owned, so Close drops
// the lock of a shard DropShard set aside too, and the next replica
// claims every shard.
func TestCloseReleasesSetAsideFilesystemLease(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("alpha"), WithShards(2))
	if _, held := j.DropShard(0); !held {
		t.Fatal("DropShard(0) found no grant")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openAll(t, dir, WithReplica("beta")).Owned(); len(got) != 2 {
		t.Fatalf("after Close the next replica owns %v, want both shards", got)
	}
}
