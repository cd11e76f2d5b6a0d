// Command arrow-serve runs the optimizers as a service: a long-running
// HTTP server where each client session is an interactive advisor — the
// server plans which VM to measure next, the client measures it and
// reports back, until the session's own stopping rule fires.
//
//	POST   /v1/sessions               open a session (method, seed, budget…)
//	GET    /v1/sessions               list live sessions
//	GET    /v1/sessions/{id}/next     which candidate to measure next
//	POST   /v1/sessions/{id}/nextbatch  up to k concurrent suggestions
//	POST   /v1/sessions/{id}/observe  report a measurement (or failure)
//	GET    /v1/sessions/{id}/result   the recommendation once done
//	DELETE /v1/sessions/{id}          abort now, salvaging a partial result
//	POST   /v1/migrate                adopt a shard streamed by a draining peer
//	GET    /healthz                   liveness + session count
//	GET    /metricsz                  aggregated telemetry counters
//
// The store holds at most -max-sessions advisors and evicts sessions
// idle past -session-ttl (evicted ids answer 410 Gone). A session's
// search loop plans only inside a request: observe plans the next
// suggestion and returns it, journaled with the observation in one
// write, so a step costs one fsync under -fsync always (while a
// /nextbatch batch is outstanding observe acks without planning: the
// batch journaled its suggestions, and the next GET next plans).
// /nextbatch hands out up to -batch concurrent suggestions per request,
// which the client may observe in any order. On SIGINT/SIGTERM the
// server stops accepting sessions, flushes every in-flight session to a
// salvaged partial result, drains the listener, then exits.
//
// With -journal-dir, sessions are durable: every state transition is
// appended to a write-ahead journal (fsync policy -fsync) before it is
// acknowledged, each request's records in one write, and on startup the
// journal is scanned — live sessions are rehydrated by deterministic
// replay (a recovery report goes to stdout), ended ones answer 410
// across the restart. Several replicas on one host may share one
// journal directory: each claims a disjoint set of shard leases
// (-claim-shards caps the claim) and answers 421 for sessions the
// others own. A lease is an exclusive flock on the shard's lease file,
// held while the process lives: the kernel frees a dead replica's
// shards at once, and a live replica's are never taken, so a second
// process started under a running replica's -replica name claims
// nothing. Sessions survive both kill -9 and graceful rolling restarts
// with zero acknowledged observations lost.
//
// -snapshot-interval N journals a CRC'd checkpoint of each session
// every N accepted observations (config fingerprint, resume script,
// trace; the ops stay in the chain, journaled once), so recovery skips
// the surrogate fits below the latest snapshot — recovery time is
// bounded by the interval, not the session length — and a damaged
// snapshot costs a full replay, never the session. -compact-interval
// periodically rewrites each owned shard in place (atomic rename),
// dropping ended and damaged chains into a tombstone index (410s
// survive) and every snapshot but each live chain's latest usable one;
// each round prints one JSON stats line per compacted shard to stdout.
// -reclaim-interval makes survivor replicas periodically take over the
// shard leases dead peers left unlocked and adopt their live sessions,
// printing a JSON reclaim report when anything was claimed.
//
// Cross-host clusters replace the flock'd filesystem lease files with a
// network registry. One process hosts the lease table with
// -registry (mounted under /registry/v1/, persisted to -registry-state,
// grants live -lease-ttl without renewal); every other replica points
// at it with -registry-addr and then needs no shared filesystem — each
// keeps its own -journal-dir, heartbeats every -heartbeat-interval, and
// a replica that stops renewing loses its shards to a survivor, which
// adopts the sessions by scanning the dead peer's directory (the
// registry remembers whose directory holds what). With -journal-dir the
// hosting process is a replica too, leasing through the same registry
// client as its peers, whose requests its own registry answers
// in-process. -advertise is how peers reach this replica;
// -drain-migrate makes a graceful shutdown stream each owned shard's
// live sessions (every op and the latest snapshot) straight to a
// surviving replica, trying the live peers in name order until one
// takes them, so planned restarts hand over in milliseconds instead of
// a lease timeout.
//
// Usage:
//
//	arrow-serve -addr :8080
//	arrow-serve -addr :8080 -audit audit.jsonl -max-sessions 128 -session-ttl 10m
//	arrow-serve -addr :8080 -journal-dir /var/lib/arrow/journal -fsync always
//	arrow-serve -addr :8080 -registry -registry-state /var/lib/arrow/registry.json -journal-dir /var/lib/arrow/j0
//	arrow-serve -addr :8081 -registry-addr http://host0:8080 -journal-dir /var/lib/arrow/j1 -drain-migrate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "arrow-serve:", err)
		os.Exit(1)
	}
}

// advertiseBase turns the bound listener address into a base URL peers
// can dial. A wildcard host (":8080" binds "[::]" or "0.0.0.0") is
// rewritten to the loopback address — right for single-host clusters
// and tests; multi-host deployments pass -advertise explicitly.
func advertiseBase(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// run parses flags, serves until a signal or until stop is closed, and
// returns after the graceful shutdown completed. stop is a test seam; a
// nil stop means serve until SIGINT/SIGTERM. Announcing the bound
// address (and everything else) goes to errOut.
func run(args []string, errOut io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("arrow-serve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		maxSessions = fs.Int("max-sessions", serve.DefaultMaxSessions, "live session cap; creates past it answer 429")
		sessionTTL  = fs.Duration("session-ttl", serve.DefaultSessionTTL, "evict sessions idle longer than this (negative disables)")
		auditPath   = fs.String("audit", "", "append a JSONL audit stream (requests, session lifecycle, search events) to this file")
		drainWait   = fs.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests to drain")
		journalDir  = fs.String("journal-dir", "", "write-ahead session journal directory; empty disables durability")
		fsyncPolicy = fs.String("fsync", "always", "journal fsync policy: always (durable through kill -9; each observe and the next suggestion it returns share one synced write) or never (faster, crash loses the unsynced tail)")
		replica     = fs.String("replica", "", "replica name in recovery reports and to the registry (default host-<hostname>)")
		claimShards = fs.Int("claim-shards", 0, "max journal shards to claim, 0 = all unclaimed; run R replicas with shards/R each")
		maxBatch    = fs.Int("batch", serve.DefaultMaxBatch, "per-request cap on the /nextbatch batch size k")

		snapInterval    = fs.Int("snapshot-interval", 0, "journal a session checkpoint every N accepted observations, 0 disables; recovery skips the surrogate fits below the latest snapshot")
		compactInterval = fs.Duration("compact-interval", 0, "compact owned journal shards this often (drop ended/damaged chains and all but each live chain's latest usable snapshot), 0 disables")
		compactMinBytes = fs.Int64("compact-min-bytes", 64<<10, "skip compacting shards smaller than this")
		compactRatio    = fs.Float64("compact-min-dead-ratio", 0.25, "skip rewrites that would shrink a shard by less than this fraction")
		reclaimInterval = fs.Duration("reclaim-interval", 0, "try to take over dead peers' journal shards this often, 0 disables")

		hostRegistry   = fs.Bool("registry", false, "host the cluster shard registry in this process (mounted under /registry/v1/)")
		registryState  = fs.String("registry-state", "", "persist the registry lease table to this file (with -registry), surviving registry restarts")
		registryAddr   = fs.String("registry-addr", "", "base URL of the cluster registry, e.g. http://host:8080; replaces filesystem shard leases with heartbeat leases")
		leaseTTL       = fs.Duration("lease-ttl", registry.DefaultLeaseTTL, "how long a registry shard lease lives without renewal (with -registry)")
		heartbeatEvery = fs.Duration("heartbeat-interval", time.Second, "how often to heartbeat the registry and renew shard leases (registry mode)")
		advertise      = fs.String("advertise", "", "base URL peers use to reach this replica (default http://<bound addr>)")
		drainMigrate   = fs.Bool("drain-migrate", false, "on graceful shutdown, stream owned shards' live sessions to a surviving replica (registry mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *hostRegistry && *registryAddr != "" {
		return fmt.Errorf("-registry and -registry-addr are exclusive: a registry host uses its own lease table in-process")
	}
	if *drainMigrate && !*hostRegistry && *registryAddr == "" {
		return fmt.Errorf("-drain-migrate needs registry mode (-registry or -registry-addr): filesystem leases have no fenced transfer")
	}
	if *heartbeatEvery <= 0 {
		return fmt.Errorf("-heartbeat-interval must be positive, got %v", *heartbeatEvery)
	}

	var tracer telemetry.Tracer
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("audit file: %w", err)
		}
		defer f.Close()
		jw := telemetry.NewJSONLWriter(f, false)
		defer jw.Flush()
		tracer = jw
	}

	// Bind before opening the journal: registry mode advertises the
	// bound address to peers, and the default -advertise derives from
	// it. Nothing is served until hs.Serve below.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	selfBase := *advertise
	if selfBase == "" {
		selfBase = advertiseBase(ln.Addr())
	}
	replicaName := *replica
	if replicaName == "" {
		host, _ := os.Hostname()
		replicaName = "host-" + host
	}

	var reg *registry.Registry
	if *hostRegistry {
		reg, err = registry.New(registry.Config{
			LeaseTTL:  *leaseTTL,
			StatePath: *registryState,
			Warnf: func(format string, args ...any) {
				fmt.Fprintf(errOut, "arrow-serve: registry: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
	}

	// client is this replica's registry lease client, nil under
	// filesystem leases.
	var client *registry.Client
	var jnl *journal.Journal
	if *journalDir != "" {
		sync, err := journal.ParseSync(*fsyncPolicy)
		if err != nil {
			return err
		}
		opts := []journal.Option{journal.WithSync(sync), journal.WithReplica(replicaName)}
		if *claimShards > 0 {
			opts = append(opts, journal.WithClaimLimit(*claimShards))
		}
		absDir, err := filepath.Abs(*journalDir)
		if err != nil {
			return fmt.Errorf("journal dir: %w", err)
		}
		switch {
		case *registryAddr != "":
			client = registry.NewClient(*registryAddr, replicaName, selfBase, absDir)
		case reg != nil:
			client = reg.Client(replicaName, selfBase, absDir)
		}
		if client != nil {
			// The registry may still be booting alongside this replica
			// (cluster bring-up is unordered); retry registration briefly
			// before giving up.
			var rerr error
			for deadline := time.Now().Add(10 * time.Second); ; {
				if rerr = client.Register(); rerr == nil {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("registering with the registry: %w", rerr)
				}
				time.Sleep(100 * time.Millisecond)
			}
			n, err := client.Shards()
			if err != nil {
				return err
			}
			opts = append(opts, journal.WithShards(n), journal.WithLeaseManager(client))
		}
		jnl, err = journal.Open(absDir, opts...)
		if err != nil {
			return err
		}
		defer jnl.Close()
	}

	if *maxBatch < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", *maxBatch)
	}
	cfg := serve.Config{
		MaxSessions:      *maxSessions,
		SessionTTL:       *sessionTTL,
		Tracer:           tracer,
		Journal:          jnl,
		SnapshotInterval: *snapInterval,
		MaxBatch:         *maxBatch,
	}
	if reg != nil {
		// Only a hosting replica mounts the routes: a nil *Registry in
		// the interface field would pass serve's nil check and panic.
		cfg.Registry = reg
	}
	srv := serve.New(cfg)

	if jnl != nil {
		// Rehydrate before the listener opens so no request can race the
		// replay. The report goes to stdout as one JSON object — the
		// machine-readable half of the crash-recovery contract.
		report, err := srv.Recover(context.Background())
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		line, err := json.Marshal(report)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "%s\n", line)
		fmt.Fprintf(errOut, "arrow-serve: journal %s, replica %s owns shards %v; recovered %d sessions (%d observations), %d ended, %d torn tails, %d damaged\n",
			*journalDir, report.Replica, report.OwnedShards, report.Recovered, report.Observations, report.Ended, report.TruncatedTails, len(report.Damaged))
		for _, d := range report.Damaged {
			fmt.Fprintf(errOut, "arrow-serve: journal damage: %s\n", d)
		}
	}

	// Background journal maintenance: periodic shard compaction, dead-
	// peer shard reclaim, and (registry mode) the heartbeat/renew loop.
	// The first two print machine-readable JSON lines to stdout (like
	// the boot recovery report); all stop at shutdown.
	maint := make(chan struct{})
	defer close(maint)
	if jnl != nil && *compactInterval > 0 {
		go func() {
			tick := time.NewTicker(*compactInterval)
			defer tick.Stop()
			for {
				select {
				case <-maint:
					return
				case <-tick.C:
				}
				stats, err := srv.CompactJournal(journal.CompactOptions{
					MinBytes:     *compactMinBytes,
					MinDeadRatio: *compactRatio,
				})
				if err != nil {
					fmt.Fprintf(errOut, "arrow-serve: compaction: %v\n", err)
				}
				for _, st := range stats {
					if !st.Compacted {
						continue
					}
					if line, err := json.Marshal(st); err == nil {
						fmt.Fprintf(os.Stdout, "%s\n", line)
					}
				}
			}
		}()
	}
	if jnl != nil && *reclaimInterval > 0 {
		go func() {
			tick := time.NewTicker(*reclaimInterval)
			defer tick.Stop()
			for {
				select {
				case <-maint:
					return
				case <-tick.C:
				}
				report, err := srv.ReclaimShards(context.Background())
				if err != nil {
					fmt.Fprintf(errOut, "arrow-serve: shard reclaim: %v\n", err)
					continue
				}
				if len(report.Claimed) == 0 {
					continue
				}
				if line, err := json.Marshal(report); err == nil {
					fmt.Fprintf(os.Stdout, "%s\n", line)
				}
				fmt.Fprintf(errOut, "arrow-serve: reclaimed shards %v from dead peers; adopted %d sessions (%d snapshot restores)\n",
					report.Claimed, report.Recovered, report.SnapshotRestores)
			}
		}()
	}
	if client != nil {
		go func() {
			tick := time.NewTicker(*heartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-maint:
					return
				case <-tick.C:
				}
				if err := client.Heartbeat(); err != nil {
					fmt.Fprintf(errOut, "arrow-serve: heartbeat: %v\n", err)
				}
				lost, err := jnl.RenewLeases()
				if err != nil {
					fmt.Fprintf(errOut, "arrow-serve: lease renew: %v\n", err)
				}
				if len(lost) > 0 {
					evicted := srv.DropShards(lost)
					fmt.Fprintf(errOut, "arrow-serve: lost shard leases %v; evicted %d sessions for their new owner\n", lost, evicted)
				}
			}
		}()
	}

	hs := &http.Server{Handler: srv}
	mode := "filesystem leases"
	switch {
	case *registryAddr != "":
		mode = "registry " + *registryAddr
	case reg != nil:
		mode = fmt.Sprintf("hosting registry (%d shards, lease ttl %v)", reg.Shards(), reg.LeaseTTL())
	}
	fmt.Fprintf(errOut, "arrow-serve: listening on %s (max-sessions %d, session-ttl %v, %s)\n",
		ln.Addr(), *maxSessions, *sessionTTL, mode)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if stop == nil {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		select {
		case sig := <-sigCh:
			fmt.Fprintf(errOut, "arrow-serve: %v, shutting down\n", sig)
		case err := <-serveErr:
			return err
		}
	} else {
		select {
		case <-stop:
		case err := <-serveErr:
			return err
		}
	}

	// With -drain-migrate, hand owned shards to a surviving replica
	// before flushing: sessions keep running on the successor instead of
	// being salvaged here. The listener is still serving, so the
	// successor's lease transfer and any client retries land normally.
	if *drainMigrate && client != nil {
		if err := migrateOnDrain(jnl, srv, client, replicaName, *drainWait, errOut); err != nil {
			fmt.Fprintf(errOut, "arrow-serve: drain migration: %v (remaining sessions will be salvaged; shards move by lease expiry)\n", err)
		}
	}

	// Flush every in-flight session to a salvaged partial result first —
	// those results stay readable while the listener drains — then stop
	// the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(errOut, "arrow-serve: session flush incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("draining listener: %w", err)
	}
	fmt.Fprintln(errOut, "arrow-serve: drained, bye")
	return nil
}

// migrateOnDrain streams every owned shard to the live peers of the
// registry's view, trying them in name order within the wait until the
// shards are gone. A peer reads live for two lease TTLs after it was
// last heard from, so one that has just drained and exited still does:
// its refused stream reinstates the grant, and the next peer's
// MigrateShards resumes from the shards still held. Each successor's
// migration report goes to stdout as one JSON line, mirroring the
// recovery report.
func migrateOnDrain(jnl *journal.Journal, srv *serve.Server, client *registry.Client, self string, wait time.Duration, errOut io.Writer) error {
	if len(jnl.Owned()) == 0 {
		return nil
	}
	st, err := client.State()
	if err != nil {
		return fmt.Errorf("cluster state: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	err = fmt.Errorf("no live successor registered")
	sort.Slice(st.Replicas, func(a, b int) bool { return st.Replicas[a].Replica < st.Replicas[b].Replica })
	for _, succ := range st.Replicas {
		if !succ.Live || succ.Replica == self || succ.Addr == "" {
			continue
		}
		var report *serve.MigrateReport
		report, err = srv.MigrateShards(ctx, succ.Addr)
		if report != nil && len(report.Shards) > 0 {
			if line, jerr := json.Marshal(report); jerr == nil {
				fmt.Fprintf(os.Stdout, "%s\n", line)
			}
			fmt.Fprintf(errOut, "arrow-serve: migrated shards %v (%d sessions, %d observations) to %s at %s\n",
				report.Shards, report.Sessions, report.Observations, succ.Replica, succ.Addr)
		}
		if err == nil || ctx.Err() != nil {
			return err
		}
		fmt.Fprintf(errOut, "arrow-serve: drain migration to %s: %v; trying the next live peer\n", succ.Replica, err)
	}
	return err
}
