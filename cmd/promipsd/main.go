// Command promipsd serves a promips index over HTTP/JSON.
//
// Endpoints (see the promips/client package for the wire types):
//
//	POST /v1/search       one top-K query
//	POST /v1/searchbatch  one query per vector, server worker pool
//	POST /v1/insert       add a vector (acknowledged = durable)
//	POST /v1/delete       tombstone an id
//	POST /v1/save         persist + truncate the journal (heals a poisoned one)
//	POST /v1/promote      failover: promote a served follower to writable primary
//	GET  /v1/stats        index snapshot (per-shard and replication detail included)
//	GET  /v1/readyz       readiness (a follower is ready only when converged)
//	GET  /healthz         liveness
//
// -dir must hold the sharded layout promipsctl build writes: a SHARDS
// manifest over K shard directories (parallel fan-out search, updates
// routed by id; K=1, the build default, is a pass-through to its one
// child). -shards K asserts the expected shard count — a deployment
// guard, not a conversion; shard counts are fixed at build time
// (promipsctl build -shards K). Every primary serves /v1/repl/* and can be
// followed.
//
// With -follow PRIMARY the server runs as a read-only replica. PRIMARY is
// either a directory on a shared filesystem or another promipsd's base URL
// (http://host:port) — with a URL the replica needs no filesystem in
// common with its primary: bootstrap snapshots, journal tails and epoch
// refreshes all ship over the primary's /v1/repl/* endpoints, CRC-checked
// and stamped with the failover epoch. -dir is bootstrapped from a
// primary snapshot (when it does not already hold one) and then converges
// by tailing the primary's write-ahead journals every -poll (backing off
// exponentially while the primary is unreachable), re-snapshotting across
// Save/Compact epochs. Search endpoints serve the replicated state;
// updates get 403 with code "read_only". GET /v1/stats reports the
// replication watermarks, lag and consecutive poll failures.
//
// Failover is manual by default: when the primary dies, POST /v1/promote
// fails the replica over in place — the poll loop stops, the remaining
// journal tails are drained, the manifest epoch is fenced against the old
// primary's resurrection, and the same process starts accepting writes as
// the new primary (and starts serving /v1/repl/* for the next replica).
// With -auto-promote (URL-followed primaries only, and -lease required) a
// supervisor does this unattended: after -suspect consecutive poll
// failures AND a failed liveness probe it quarantines the primary — no
// pulls, so no lease renewals, and readiness/stats answer from local
// state — and promotes only after a full request-timeout plus -lease plus
// margin of continued silence. A primary started with -lease fences its
// own write path (503/lease_expired) when its auto-promoting follower has
// not pulled history for that long, which is what makes the unattended
// promotion safe: by the time the new primary can acknowledge a write,
// the partitioned old one has already been refusing them (see DESIGN.md
// for the argument).
//
// Lease topology rules (the fence is only as strong as these):
//
//   - Run at most ONE -auto-promote follower per primary. The lease binds
//     to that follower's identity; a primary refuses history pulls from a
//     second auto-promoter while the lease is live, because two
//     independent promoters could each fail over on their own — no lease
//     can fence them against each other. Plain followers (no
//     -auto-promote) are unlimited: their pulls never touch the lease.
//   - The primary's -lease must be no LARGER than the follower's (same
//     value on both sides is simplest): the follower waits out its own
//     -lease before promoting, so a primary fencing on a longer one could
//     still be acknowledging writes when the promotion commits.
//   - Metadata reads (what Lag, /v1/readyz and /v1/stats scrapes issue)
//     never renew the lease; only wal and snapshot pulls do.
//
// Admission is bounded: at most -searchq searches and -updateq updates run
// at once; excess requests get 429 + Retry-After instead of queuing without
// limit. Every request runs under a deadline (-timeout, shortened by the
// request's timeout_ms); -timeout also bounds how long a request may take
// to arrive and, twelve times over, how long a keep-alive connection may
// sit idle. On SIGINT/SIGTERM the listener drains in-flight
// requests (for up to 10s), then the index is Saved — folding the journal
// into the metadata so the next open replays nothing — and closed. A
// follower skips the Save (its directory is a cache of the primary's
// state) and simply closes.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"promips/shard"
)

// replRequestTimeout bounds one replication pull over HTTP (τ in the
// failover fencing argument: no pull the follower has given up on can
// still reach the primary after this much quarantine).
const replRequestTimeout = 5 * time.Second

// newHTTPServer returns the listener's server for handler h. Every
// connection is bounded in time by the per-request deadline: a request —
// headers and body — must arrive within timeout, and a keep-alive
// connection idle for twelve of them (a minute at the default) is closed,
// so a client that trickles a body or parks a connection holds its
// goroutine for a bounded time.
func newHTTPServer(addr string, h http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       timeout,
		IdleTimeout:       12 * timeout,
	}
}

// drainGrace is how long shutdown waits for in-flight requests.
const drainGrace = 10 * time.Second

// runConfig carries main's flags into run.
type runConfig struct {
	dir, addr                string
	timeout                  time.Duration
	searchq, updateq, shards int
	follow                   string // primary dir or base URL
	poll                     time.Duration
	autoPromote              bool
	lease                    time.Duration
	suspect                  int
	autoCompact              int
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.dir, "dir", "", "index directory (required; create one with promipsctl build)")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7845", "listen address")
	flag.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "default and maximum per-request deadline")
	flag.IntVar(&cfg.searchq, "searchq", 64, "max concurrent search requests before 429")
	flag.IntVar(&cfg.updateq, "updateq", 64, "max concurrent update requests before 429")
	flag.IntVar(&cfg.shards, "shards", 0, "assert the index has exactly this shard count (0 = no assertion)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read-only replica of this primary (index directory or promipsd base URL)")
	flag.DurationVar(&cfg.poll, "poll", 500*time.Millisecond, "replication poll interval (with -follow)")
	flag.BoolVar(&cfg.autoPromote, "auto-promote", false, "promote automatically when the followed primary dies (requires -follow URL and -lease; run at most one per primary)")
	flag.DurationVar(&cfg.lease, "lease", 0, "replication write lease: a primary fences writes when its auto-promoting follower has not pulled history for this long; a follower waits it out before auto-promoting (0 = disabled; both sides must set it, primary's no larger than the follower's)")
	flag.IntVar(&cfg.suspect, "suspect", 3, "consecutive poll failures before the primary is suspected dead (with -auto-promote)")
	flag.IntVar(&cfg.autoCompact, "auto-compact", 0, "fold frozen update segments into the base index in the background once this many accumulate (0 = disabled; ids are reassigned by each fold; a follower never auto-compacts, but adopts the setting if promoted)")
	flag.Parse()
	if cfg.dir == "" {
		fmt.Fprintln(os.Stderr, "promipsd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "promipsd: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		log.Fatalf("promipsd: %v", err)
	}
}

// validate rejects flag combinations that look runnable but break the
// failover safety argument.
func (cfg runConfig) validate() error {
	if cfg.dir == "" {
		return errors.New("-dir is required")
	}
	if cfg.autoPromote && !isURL(cfg.follow) {
		return errors.New("-auto-promote requires -follow with a primary base URL (the supervisor probes its /healthz)")
	}
	if cfg.autoPromote && cfg.lease <= 0 {
		// Without a lease there is no fence: the follower would promote
		// after a bare timeout while a partitioned-but-alive primary kept
		// acknowledging writes forever — a forked history from a plain
		// misconfiguration. The primary must be started with -lease too
		// (no larger than this value).
		return errors.New("-auto-promote requires -lease > 0: unattended promotion is only safe when the primary fences its writes on replication silence (start the primary with the same -lease)")
	}
	return nil
}

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// urlOrEmpty returns primary when it is a probeable base URL, "" for a
// directory (no liveness endpoint to probe).
func urlOrEmpty(primary string) string {
	if isURL(primary) {
		return strings.TrimRight(primary, "/")
	}
	return ""
}

// openIndex resolves -dir (and -follow / -shards) into the serving index:
// a follower of cfg.follow, or the primary the directory holds.
func openIndex(cfg runConfig) (index, error) {
	var ix index
	if cfg.follow != "" {
		promoter := ""
		if cfg.autoPromote {
			promoter = promoterID()
		}
		f, err := openFollower(cfg.dir, cfg.follow, promoter)
		if err != nil {
			return nil, err
		}
		ix = f
	} else {
		six, err := shard.Open(cfg.dir)
		if err != nil {
			return nil, err
		}
		ix = six
	}
	if cfg.shards > 0 && ix.Shards() != cfg.shards {
		ix.Close()
		return nil, fmt.Errorf("-shards %d asserted but %s has %d", cfg.shards, cfg.dir, ix.Shards())
	}
	return ix, nil
}

// replSource builds the replication transport for -follow: an HTTP source
// against another promipsd's base URL, or the shared-filesystem source
// for a directory. An auto-promoting follower identifies itself on every
// pull (promoter != ""), binding the primary's write lease to this
// process; plain replicas stay anonymous and lease-neutral.
func replSource(primary, promoter string) shard.ReplSource {
	if isURL(primary) {
		opts := []shard.HTTPSourceOption{shard.WithRequestTimeout(replRequestTimeout)}
		if promoter != "" {
			opts = append(opts, shard.WithPromoter(promoter))
		}
		return shard.NewHTTPSource(primary, opts...)
	}
	return shard.NewDirSource(primary)
}

// promoterID builds the unique identity an auto-promoting follower pulls
// under: one per process, so a restart binds a fresh lease (within one
// lease of the old one expiring) instead of silently inheriting a
// promise an earlier process made.
func promoterID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails (panics on a broken OS source)
	host, _ := os.Hostname()
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(b[:]))
}

// openFollower bootstraps (if needed) and opens the replica and converges
// it once. The poll loop is the supervisor's, started by run.
func openFollower(dir, primary, promoter string) (*shard.Follower, error) {
	src := replSource(primary, promoter)
	if !shard.IsSharded(dir) {
		log.Printf("replica %s is empty: snapshotting %s", dir, primary)
		if err := shard.SnapshotFrom(src, dir); err != nil {
			return nil, err
		}
	}
	f, err := shard.OpenFollowerFrom(dir, src)
	if err != nil {
		return nil, err
	}
	if _, err := f.Poll(); err != nil {
		log.Printf("initial poll: %v (will retry)", err)
	}
	lag, _ := f.Lag()
	log.Printf("following %s: %d shards, %d live points, lag %d", primary, f.Shards(), f.LiveCount(), lag)
	return f, nil
}

func run(cfg runConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The poll loop gets its own cancel under the signal context, so
	// /v1/promote can stop replication without tearing the server down.
	pollCtx, stopPoll := context.WithCancel(ctx)
	defer stopPoll()

	ix, err := openIndex(cfg)
	if err != nil {
		return err
	}
	rec := ix.Recovery()
	log.Printf("serving %s: %d shards, %d live points, dim %d (journal replayed %d)", cfg.dir, ix.Shards(), ix.LiveCount(), ix.Dim(), rec.Replayed)

	h := newServer(ix, serverConfig{
		requestTimeout: cfg.timeout,
		searchSlots:    cfg.searchq,
		updateSlots:    cfg.updateq,
		leaseDur:       cfg.lease,
		autoCompactMin: cfg.autoCompact,
	})
	h.stopPoll = stopPoll
	if f, ok := ix.(*shard.Follower); ok {
		// The supervisor owns polling (with failure backoff) and, when
		// -auto-promote is set, the quarantine-then-promote failover. A
		// primary needs nothing here: newServer already mounted its
		// replication wire and started -auto-compact.
		sup := newSupervisor(f, h, cfg.poll, urlOrEmpty(cfg.follow), cfg.autoPromote, cfg.lease, cfg.suspect)
		go sup.run(pollCtx)
	}
	srv := newHTTPServer(cfg.addr, h, cfg.timeout)

	serveErr := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", cfg.addr)
		serveErr <- srv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		h.cur().Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish, then
	// fold the journal into durable metadata so the next open is replay-free.
	// A follower has nothing of its own to save — its tree mirrors the
	// primary — so it only closes; unless it was promoted mid-run, in which
	// case the served index IS a primary now and saves like one.
	log.Printf("shutting down: draining for up to %s", drainGrace)
	dctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	// Stop background compaction before Save: a fold racing the shutdown
	// Save would rebuild a generation the Save is about to supersede, and
	// Stop cancels an in-flight fold's context so the drain stays bounded.
	h.stopAutoCompact()
	cur := h.cur() // promote may have swapped the served index
	save := cfg.follow == "" || h.promoted.Load()
	if save {
		if err := cur.Save(); err != nil {
			cur.Close()
			return fmt.Errorf("save on shutdown: %w", err)
		}
	}
	if err := cur.Close(); err != nil {
		return fmt.Errorf("close on shutdown: %w", err)
	}
	// ListenAndServe has returned ErrServerClosed by now; anything else is real.
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if save {
		log.Printf("clean shutdown: index saved")
	} else {
		log.Printf("clean shutdown: replica closed")
	}
	return nil
}
