// Command promipsctl builds, inspects, queries and maintains ProMIPS
// indexes from the command line, entirely through the public promips API.
// Every index it writes or opens is the sharded directory layout promipsd
// serves (a SHARDS manifest over K shard directories; K=1 by default).
//
// Usage:
//
//	promipsctl build   -data vectors.pds -dir ./idx [-shards 1 -c 0.9 -p 0.5 -m 0 -page 4096]
//	promipsctl query   -dir ./idx -data vectors.pds [-k 10 -queries 5 -seed 1 -c 0 -p 0]
//	promipsctl compact -dir ./idx
//	promipsctl stats   -dir ./idx
//	promipsctl recover -dir ./idx [-commit]
//	promipsctl snapshot -from ./idx|http://host:port -dir ./replica
//	promipsctl promote -addr http://host:port | -dir ./replica -primary ./idx|http://host:port
//
// snapshot bootstraps a replica directory as a copy of a primary —
// either an index directory on a shared filesystem or a running
// promipsd's base URL, in which case the shards ship over its
// /v1/repl/* endpoints (CRC-checked; a torn transfer leaves no
// manifest and is safely re-runnable).
//
// promote fails a replica over to writable primary after its primary
// dies: online against a running promipsd follower (-addr, via POST
// /v1/promote), or offline against a replica directory (-dir/-primary):
// the remaining journal tails are drained from the dead primary —
// -primary takes a directory or a base URL, and a dead primary that
// serves nothing simply has nothing left to drain — and the manifest
// epoch is fenced so a resurrected old primary is refused.
//
// Vector files use the datagen format (see cmd/datagen).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"promips"
	"promips/client"
	"promips/dataset"
	"promips/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "compact":
		err = runCompact(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "recover":
		err = runRecover(os.Args[2:])
	case "snapshot":
		err = runSnapshot(os.Args[2:])
	case "promote":
		err = runPromote(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "promipsctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  promipsctl build   -data vectors.pds -dir ./idx [-shards 1 -c 0.9 -p 0.5 -m 0 -page 4096 -seed 1]
  promipsctl query   -dir ./idx -data vectors.pds [-k 10 -queries 5 -seed 1 -c 0 -p 0 -timeout 0]
  promipsctl compact -dir ./idx [-timeout 0]
  promipsctl stats   -dir ./idx [-timeout 0]
  promipsctl recover -dir ./idx [-commit]
  promipsctl snapshot -from ./idx|http://host:port -dir ./replica
  promipsctl promote -addr http://host:port | -dir ./replica -primary ./idx|http://host:port [-timeout 0]`)
}

// timeoutFlag registers the shared -timeout flag: a bound on all the
// index work the subcommand issues (0 = none).
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "abort index operations after this long (0 = no limit)")
}

// opCtx derives the context every index operation of a subcommand runs
// under from its -timeout value.
func opCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dataPath := fs.String("data", "", "vector file (datagen format)")
	dir := fs.String("dir", "", "index directory (created)")
	c := fs.Float64("c", 0.9, "approximation ratio c in (0,1)")
	p := fs.Float64("p", 0.5, "guarantee probability p in (0,1)")
	m := fs.Int("m", 0, "projected dimension (0 = optimized)")
	page := fs.Int("page", 4096, "disk page size in bytes")
	seed := fs.Int64("seed", 1, "random seed")
	shards := fs.Int("shards", 1, "shard count K (K>1 adds parallel fan-out search and per-shard journals; 1 is a pass-through to its one child)")
	fs.Parse(args)
	if *dataPath == "" || *dir == "" {
		return fmt.Errorf("build requires -data and -dir")
	}
	data, err := dataset.ReadFile(*dataPath)
	if err != nil {
		return err
	}
	start := time.Now()
	ix, err := shard.Build(data, shard.Options{Shards: *shards, Dir: *dir,
		Index: promips.Options{C: *c, P: *p, M: *m, PageSize: *page, Seed: *seed}})
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.Save(); err != nil {
		return err
	}
	sz := ix.Sizes()
	fmt.Printf("built index over n=%d d=%d points in %v\n", ix.Len(), ix.Dim(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("shards: %d\n", ix.Shards())
	fmt.Printf("projected dimension m=%d\n", ix.M())
	fmt.Printf("index size: %.2f MB (ring directory %.2f, projected %.2f, quick-probe %.2f, norms %.2f)\n",
		float64(sz.Total())/(1<<20), float64(sz.RingDir)/(1<<20), float64(sz.Projected)/(1<<20),
		float64(sz.QuickProbe)/(1<<20), float64(sz.Norms)/(1<<20))
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory")
	dataPath := fs.String("data", "", "vector file to draw queries from")
	k := fs.Int("k", 10, "results per query")
	nq := fs.Int("queries", 5, "number of queries")
	seed := fs.Int64("seed", 1, "query selection seed")
	c := fs.Float64("c", 0, "per-query approximation ratio override (0 = index default)")
	p := fs.Float64("p", 0, "per-query guarantee probability override (0 = index default)")
	timeout := timeoutFlag(fs)
	fs.Parse(args)
	if *dir == "" || *dataPath == "" {
		return fmt.Errorf("query requires -dir and -data")
	}
	ix, err := shard.Open(*dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	data, err := dataset.ReadFile(*dataPath)
	if err != nil {
		return err
	}
	var opts []promips.SearchOption
	if *c != 0 {
		opts = append(opts, promips.WithC(*c))
	}
	if *p != 0 {
		opts = append(opts, promips.WithP(*p))
	}
	ctx, cancel := opCtx(*timeout)
	defer cancel()
	rng := newRand(*seed)
	for qi := 0; qi < *nq; qi++ {
		q := data[rng.Intn(len(data))]
		start := time.Now()
		res, st, err := ix.Search(ctx, q, *k, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("query %d: %v, %d candidates, %d page accesses, terminated by %s\n",
			qi, time.Since(start).Round(time.Microsecond), st.Candidates, st.PageAccesses, st.TerminatedBy)
		for i, r := range res {
			fmt.Printf("  #%-3d id=%-8d ip=%.4f\n", i+1, r.ID, r.IP)
		}
	}
	return nil
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory")
	timeout := timeoutFlag(fs)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("compact requires -dir")
	}
	ctx, cancel := opCtx(*timeout)
	defer cancel()
	ix, err := shard.Open(*dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	before := ix.Len()
	start := time.Now()
	remap, err := ix.Compact(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("compacted %d -> %d points across %d shard(s) in %v (ids remapped per shard)\n",
		before, len(remap), ix.Shards(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("index size now %.2f MB\n", float64(ix.Sizes().Total())/(1<<20))
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory")
	dataPath := fs.String("data", "", "optional vector file: exercise the cache with -queries searches before printing counters")
	nq := fs.Int("queries", 0, "queries to run against the live index when -data is given (default 20)")
	seed := fs.Int64("seed", 1, "query selection seed")
	timeout := timeoutFlag(fs)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("stats requires -dir")
	}
	ix, err := shard.Open(*dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	o := ix.Options()
	sz := ix.Sizes()
	fmt.Printf("points: %d (live %d)  dim: %d  projected m: %d\n", ix.Len(), ix.LiveCount(), ix.Dim(), ix.M())
	fmt.Printf("shards: %d  per-shard journal: %v\n", ix.Shards(), ix.JournalLens())
	fmt.Printf("c: %.2f  p: %.2f  page size: %d\n", o.C, o.P, o.PageSize)
	fmt.Printf("index size: %.2f MB\n", float64(sz.Total())/(1<<20))
	fmt.Printf("  ring directory: %7d bytes\n", sz.RingDir)
	fmt.Printf("  projected:   %10d bytes\n", sz.Projected)
	fmt.Printf("  quick-probe: %10d bytes\n", sz.QuickProbe)
	fmt.Printf("  norms:       %10d bytes\n", sz.Norms)
	fmt.Printf("  pq-sketch:   %10d bytes\n", sz.Sketch)
	if *dataPath != "" {
		data, err := dataset.ReadFile(*dataPath)
		if err != nil {
			return err
		}
		n := *nq
		if n <= 0 {
			n = 20
		}
		rng := newRand(*seed)
		ctx, cancel := opCtx(*timeout)
		defer cancel()
		for qi := 0; qi < n; qi++ {
			if _, _, err := ix.Search(ctx, data[rng.Intn(len(data))], 10); err != nil {
				return err
			}
		}
		fmt.Printf("exercised cache with %d queries\n", n)
	}
	cs := ix.CacheStats()
	fmt.Printf("page reads: %d accesses, %d from memory (%.1f%%), %d from disk\n",
		cs.Accesses, cs.Hits, cs.HitRatio()*100, cs.Misses)
	printUpdates(ix)
	printJournal(ix)
	return nil
}

// printUpdates reports the update pipeline: how much un-compacted data
// sits in the mutable delta and the frozen segments (whose count background
// compaction triggers on), and the lifetime freeze counter.
func printUpdates(ix *shard.Index) {
	us := ix.UpdateStats()
	if us.DeltaEntries == 0 && us.Segments == 0 && us.Freezes == 0 && us.Tombstones == 0 {
		return // nothing in the update pipeline; keep quiet
	}
	fmt.Printf("updates: delta %d entr%s, %d frozen segment(s) holding %d entr%s, %d tombstone(s)\n",
		us.DeltaEntries, plural(us.DeltaEntries, "y", "ies"),
		us.Segments, us.SegmentEntries, plural(us.SegmentEntries, "y", "ies"),
		us.Tombstones)
	if us.Freezes > 0 {
		fmt.Printf("         lifetime: %d freeze(s)\n", us.Freezes)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// printJournal reports the write-ahead journal's state: how many
// acknowledged updates are not yet folded into a Save (summed over
// shards), and what this Open's replay recovered.
func printJournal(ix *shard.Index) {
	fmt.Printf("journal: %d pending update(s)\n", ix.JournalLen())
	if rec := ix.Recovery(); rec.Replayed > 0 || rec.Skipped > 0 || rec.TruncatedBytes > 0 {
		fmt.Printf("recovery at open: %d update(s) replayed, %d already persisted, %d torn byte(s) truncated\n",
			rec.Replayed, rec.Skipped, rec.TruncatedBytes)
	}
}

// runPromote fails a replica over to writable primary. Online (-addr) it
// asks a running promipsd follower to promote itself in place; offline
// (-dir/-primary) it opens the replica directory, drains the dead
// primary's remaining journal tails, fences the epoch and leaves the
// directory ready to serve as a primary.
func runPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "", "running promipsd follower to promote in place (base URL)")
	dir := fs.String("dir", "", "offline: replica directory to promote")
	primary := fs.String("primary", "", "offline: the dead primary's index directory or base URL")
	retries := fs.Int("retries", 2, "client retry budget for the online promote")
	timeout := timeoutFlag(fs)
	fs.Parse(args)
	ctx, cancel := opCtx(*timeout)
	defer cancel()
	switch {
	case *addr != "" && *dir == "" && *primary == "":
		c := client.New(*addr, client.WithRetries(*retries))
		if err := c.Promote(ctx); err != nil {
			return err
		}
		st, err := c.Stats(ctx)
		if err != nil {
			return fmt.Errorf("promoted, but stats unavailable: %w", err)
		}
		fmt.Printf("promoted %s: serving as primary at epoch %d (%d live points)\n", *addr, st.Epoch, st.Live)
		return nil
	case *addr == "" && *dir != "" && *primary != "":
		f, err := shard.OpenFollowerFrom(*dir, ctlReplSource(*primary))
		if err != nil {
			return err
		}
		ix, err := shard.Promote(f)
		if err != nil {
			f.Close()
			return err
		}
		defer ix.Close()
		fmt.Printf("promoted %s: primary at epoch %d, %d live points across %d shards\n",
			*dir, ix.Epoch(), ix.LiveCount(), ix.Shards())
		return nil
	default:
		return fmt.Errorf("promote requires -addr alone (online) or -dir with -primary (offline)")
	}
}

// ctlReplSource resolves a primary operand (-primary, -from): a base URL
// selects the HTTP replication source (promipsd's /v1/repl/* endpoints),
// anything else the directory source.
func ctlReplSource(primary string) shard.ReplSource {
	if strings.HasPrefix(primary, "http://") || strings.HasPrefix(primary, "https://") {
		return shard.NewHTTPSource(strings.TrimRight(primary, "/"))
	}
	return shard.NewDirSource(primary)
}

// runSnapshot bootstraps a replica directory from a primary, over
// whichever transport -from names. The manifest is written last, so a
// transfer torn partway leaves a directory promipsd (and a re-run of
// this command, after removing it) treats as empty, never a manifest
// over missing shards.
func runSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	from := fs.String("from", "", "primary to copy (index directory or promipsd base URL)")
	dir := fs.String("dir", "", "replica directory to create")
	fs.Parse(args)
	if *from == "" || *dir == "" {
		return fmt.Errorf("snapshot requires -from and -dir")
	}
	if shard.IsSharded(*dir) {
		return fmt.Errorf("%s already holds a sharded index; snapshot refuses to overwrite it", *dir)
	}
	src := ctlReplSource(*from)
	defer src.Close()
	start := time.Now()
	if err := shard.SnapshotFrom(src, *dir); err != nil {
		return err
	}
	ix, err := shard.Open(*dir)
	if err != nil {
		return fmt.Errorf("snapshot completed but replica does not open: %w", err)
	}
	defer ix.Close()
	fmt.Printf("snapshotted %s -> %s: %d shards, %d live points, epoch %d in %v\n",
		*from, *dir, ix.Shards(), ix.LiveCount(), ix.Epoch(), time.Since(start).Round(time.Millisecond))
	return nil
}

// runRecover opens the index — which IS the recovery procedure: the
// write-ahead journal is replayed on top of the last Save and any torn
// record tail is cleanly truncated — and reports what happened. With
// -commit the recovered state is folded into the metadata (Save), so the
// journal is emptied and the next open is replay-free.
func runRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory")
	commit := fs.Bool("commit", false, "persist the recovered state (Save) so the journal is emptied")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("recover requires -dir")
	}
	start := time.Now()
	ix, err := shard.Open(*dir)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer ix.Close()
	rec := ix.Recovery()
	fmt.Printf("opened in %v: %d points (%d live)\n",
		time.Since(start).Round(time.Millisecond), ix.Len(), ix.LiveCount())
	fmt.Printf("shards: %d (journal replay is per shard; counts below are summed)\n", ix.Shards())
	fmt.Printf("recovery: %d update(s) replayed on top of the last save\n", rec.Replayed)
	fmt.Printf("          %d record(s) already covered by the saved metadata\n", rec.Skipped)
	fmt.Printf("          %d torn byte(s) cleanly truncated from the journal tail\n", rec.TruncatedBytes)
	fmt.Printf("journal now holds %d pending update(s)\n", ix.JournalLen())
	if !*commit {
		if ix.JournalLen() > 0 {
			fmt.Println("run with -commit to fold the recovered updates into the metadata")
		}
		return nil
	}
	if err := ix.Save(); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	fmt.Println("committed: recovered state persisted, journal emptied")
	return nil
}
