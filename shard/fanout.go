package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"promips"
	"promips/internal/par"
)

// Fan-out query execution over K child indexes, and the shardSet read
// surface the primary Index and the read-only Follower both embed.
//
// Id remapping: child s owns every global id ≡ s (mod K), stored locally
// as global/K, so results come back with local ids and are remapped to
// localID·K + s before the merge; a caller's WithFilter predicate is
// rewrapped per child with the inverse map.
//
// Probability composition: a fanned-out query must hold the caller's
// (c, p) guarantee over the MERGED top-k, but each child only guarantees
// its own shard. Running every child at p_shard = 1 − (1−p)/K makes the
// per-child failure probability (1−p)/K, so by the union bound all K
// child guarantees hold simultaneously with probability ≥ p. When they
// do, the merged result is c-approximate against the global exact top-k:
// the global i-th exact points distribute over the shards as some k_s per
// shard with Σk_s = i, and shard s's first k_s returned points each reach
// c times s's k_s-th exact inner product, which is at least the global
// i-th exact value t_i — so the merged i-th result (the best i points
// across all shards) reaches c·t_i. See DESIGN.md, "Sharding &
// replication", for the full argument.
//
// Degradation: by default a K>1 Search isolates shards that fail or miss
// their per-shard deadline (WithShardTimeout) instead of failing the whole
// query. The merged answer over the A answering shards still carries a
// quantified guarantee — it is c-approximate against the exact top-k OVER
// THOSE SHARDS' POINTS with probability ≥ 1 − A·(1−p)/K (the same union
// bound, now over fewer events), reported as SearchStats.Degraded. Three
// rules bound the behavior: the caller's own context error is never masked
// by degradation; if no shard answered, the first shard's error (shard
// order — deterministic) surfaces; and WithRequireAllShards restores
// all-or-nothing semantics. Exact never degrades — it is the ground truth
// correctness is measured against, and a silently partial ground truth
// would poison every comparison. See DESIGN.md, "Failure domains &
// degradation".
//
// Tie-breaking: the merge orders by inner product descending and breaks
// exact float ties by ascending global id — deterministic regardless of
// goroutine completion order. (A single index breaks ties by scan order
// instead; the two only differ when distinct points have bit-identical
// inner products.)

// fanSearch runs one query against every child in parallel and merges.
// flt is the optional deterministic fault injector (see Faults); it is
// consulted once per shard per query.
func fanSearch(ctx context.Context, children []*promips.Index, flt *Faults, q []float32, k int, opts []promips.SearchOption) ([]promips.Result, promips.SearchStats, error) {
	if len(children) == 1 {
		// One shard IS the index: local ids are global ids and the full
		// probability budget stays with the only child, so the options pass
		// through untouched and the answer — stats included — is
		// byte-identical to the unsharded index's.
		return children[0].Search(ctx, q, k, opts...)
	}
	childOpts, resolved, p, err := splitOptions(children, opts)
	if err != nil {
		return nil, promips.SearchStats{}, err
	}
	outs := fanOut(ctx, children, func(ctx context.Context, s int, child *promips.Index) ([]promips.Result, promips.SearchStats, error) {
		if resolved.ShardTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, resolved.ShardTimeout)
			defer cancel()
		}
		if flt != nil {
			if err := flt.enter(ctx, s); err != nil {
				return nil, promips.SearchStats{}, err
			}
		}
		return child.Search(ctx, q, k, childOpts(s)...)
	})
	return mergeOuts(ctx, k, p, resolved.RequireAllShards, outs)
}

// fanExact runs the ground-truth scan against every child in parallel and
// merges — the exact global top-k. Because the id layout keeps global ids
// identical to a single index built over the same data (see Insert), the
// merged answer is byte-identical to the unsharded Exact whenever no two
// points tie bit-for-bit on the inner product. Exact is always
// all-or-nothing: a partial ground truth is worse than none.
func fanExact(ctx context.Context, children []*promips.Index, q []float32, k int) ([]promips.Result, error) {
	outs := fanOut(ctx, children, func(ctx context.Context, _ int, child *promips.Index) ([]promips.Result, promips.SearchStats, error) {
		res, err := child.Exact(ctx, q, k)
		return res, promips.SearchStats{}, err
	})
	res, _, err := mergeOuts(ctx, k, 0, true, outs)
	return res, err
}

// shardOut is one child's part of a fanned-out query.
type shardOut struct {
	res   []promips.Result // global ids
	st    promips.SearchStats
	empty bool // every point of the shard is deleted
	err   error
}

// fanOut runs call against every child at once, one goroutine per shard,
// and returns the outputs in shard order: a shard whose points are all
// deleted is empty (it contributes nothing; the composed index is only
// empty if every shard is), any other error is wrapped with the shard's
// number, and result ids are remapped into the global id space. The
// goroutines are not bounded by GOMAXPROCS: a degraded fan-out and
// WithShardTimeout need every shard in flight at once, so a slow shard
// never holds back the others' start.
func fanOut(ctx context.Context, children []*promips.Index, call func(ctx context.Context, s int, child *promips.Index) ([]promips.Result, promips.SearchStats, error)) []shardOut {
	outs := make([]shardOut, len(children))
	var wg sync.WaitGroup
	for s, child := range children {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, st, err := call(ctx, s, child)
			switch {
			case errors.Is(err, promips.ErrEmptyIndex):
				outs[s] = shardOut{empty: true}
			case err != nil:
				outs[s] = shardOut{err: fmt.Errorf("shard %d: %w", s, err)}
			default:
				outs[s] = shardOut{res: remapResults(res, len(children), s), st: st}
			}
		}()
	}
	wg.Wait()
	return outs
}

// fanBatch answers many queries on the worker pool (internal/par); each
// claimed query fans out across all children, so the in-flight I/O
// concurrency is GOMAXPROCS × K — the overlap that buys sharded batch
// throughput on disk-bound workloads. Per-query answers are identical to
// sequential fanSearch calls — including per-query degradation, each
// query's SearchStats.Degraded reporting its own shard losses; the first
// query-fatal error stops the remaining work.
func fanBatch(ctx context.Context, children []*promips.Index, flt *Faults, queries [][]float32, k int, opts []promips.SearchOption) ([][]promips.Result, []promips.SearchStats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	results := make([][]promips.Result, len(queries))
	stats := make([]promips.SearchStats, len(queries))
	err := par.Do(ctx, len(queries), func(i int) (err error) {
		if results[i], stats[i], err = fanSearch(ctx, children, flt, queries[i], k, opts); err != nil {
			return fmt.Errorf("shard: batch query %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// splitOptions derives the per-child option factory for a K>1 fan-out:
// the probability budget is split via the union bound, the filter is
// rewrapped into each child's local id space, and C passes through. It
// also returns the resolved options and the effective global p (the
// caller's override or the index default) — the inputs the degraded merge
// needs for its achieved-guarantee accounting.
func splitOptions(children []*promips.Index, opts []promips.SearchOption) (func(s int) []promips.SearchOption, promips.ResolvedOptions, float64, error) {
	k := len(children)
	resolved := promips.ResolveSearchOptions(opts...)
	p := resolved.P
	if p == 0 {
		p = children[0].Options().P
	}
	// Validate before transforming: the children would otherwise reject a
	// derived value the caller never passed.
	if !(p > 0 && p < 1) {
		return nil, resolved, 0, fmt.Errorf("shard: probability p must be in (0,1), got %v", p)
	}
	pShard := 1 - (1-p)/float64(k)
	return func(s int) []promips.SearchOption {
		o := []promips.SearchOption{promips.WithP(pShard)}
		if resolved.C != 0 {
			o = append(o, promips.WithC(resolved.C))
		}
		if f := resolved.Filter; f != nil {
			ss := uint32(s)
			kk := uint32(k)
			o = append(o, promips.WithFilter(func(local uint32) bool {
				return f(local*kk + ss)
			}))
		}
		return o
	}, resolved, p, nil
}

// remapResults rewrites child-local result ids into the global id space.
func remapResults(res []promips.Result, k, s int) []promips.Result {
	for i := range res {
		res[i].ID = res[i].ID*uint32(k) + uint32(s)
	}
	return res
}

// mergeOuts folds per-shard outputs into one answer.
//
// Strict mode (RequireAllShards, and always for Exact): the first error in
// shard order — deterministic — fails the query, exactly the pre-degraded
// behavior. Otherwise failed shards are isolated and the healthy shards'
// merge is returned with a SearchStats.Degraded report, under three
// overriding rules: the caller's own context error always surfaces (a
// cancelled caller asked for nothing, not for a partial answer); if every
// shard failed the first error surfaces (there is no partial answer to
// give); and all shards empty with none failed is ErrEmptyIndex, as ever.
// p is the effective global guarantee probability the fan-out was asked
// for; the degraded report's AchievedP = 1 − A·(1−p)/K is the union bound
// re-taken over only the A shards that answered.
func mergeOuts(ctx context.Context, k int, p float64, strict bool, outs []shardOut) ([]promips.Result, promips.SearchStats, error) {
	var (
		lists    [][]promips.Result
		sts      []promips.SearchStats
		failed   []int
		firstErr error
		allEmpty = true
	)
	for s, o := range outs {
		if o.err != nil {
			if strict {
				return nil, promips.SearchStats{}, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			failed = append(failed, s)
			continue
		}
		if o.empty {
			continue
		}
		allEmpty = false
		lists = append(lists, o.res)
		sts = append(sts, o.st)
	}
	if len(failed) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, promips.SearchStats{}, err
		}
		if len(failed) == len(outs) {
			return nil, promips.SearchStats{}, firstErr
		}
	}
	if allEmpty && len(failed) == 0 {
		return nil, promips.SearchStats{}, fmt.Errorf("shard: %w: no shard has live points", promips.ErrEmptyIndex)
	}
	st := mergeStats(sts)
	if len(failed) > 0 {
		answered := len(outs) - len(failed)
		st.Degraded = &promips.DegradedStats{
			ShardsTotal:    len(outs),
			ShardsAnswered: answered,
			FailedShards:   failed,
			AchievedP:      1 - float64(answered)*(1-p)/float64(len(outs)),
		}
	}
	return mergeTopK(k, lists), st, nil
}

// mergeTopK merges per-shard top-k lists (each already sorted best-first)
// into the global top-k with the deterministic (value, id) order.
func mergeTopK(k int, lists [][]promips.Result) []promips.Result {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]promips.Result, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].IP != merged[j].IP {
			return merged[i].IP > merged[j].IP
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// mergeStats aggregates per-shard work counters into one whole-query
// view: additive counters sum (the paper's Page Access metric counts
// every page the fanned-out query touched), the radii report the widest
// shard's search range, and TerminatedBy joins the distinct per-shard
// reasons in shard order ("A+B" means some shards stopped on Condition A,
// others on B).
func mergeStats(sts []promips.SearchStats) promips.SearchStats {
	var m promips.SearchStats
	var reasons []string
	seen := map[string]bool{}
	for _, st := range sts {
		m.Candidates += st.Candidates
		m.PageAccesses += st.PageAccesses
		m.Preranked += st.Preranked
		m.NormPruned += st.NormPruned
		m.GroupsProbed += st.GroupsProbed
		if st.Radius > m.Radius {
			m.Radius = st.Radius
		}
		if st.ExtendedRadius > m.ExtendedRadius {
			m.ExtendedRadius = st.ExtendedRadius
		}
		if st.TerminatedBy != "" && !seen[st.TerminatedBy] {
			seen[st.TerminatedBy] = true
			reasons = append(reasons, st.TerminatedBy)
		}
	}
	m.TerminatedBy = strings.Join(reasons, "+")
	return m
}

// shardSet is the K open children of one sharded directory and the read
// surface over them: the one implementation Index and Follower both embed,
// so a primary and a replica answer and report through the same code.
//
// mu orders reads against the follower's child swap (refreshShard replaces
// a child and closes the old one; no read may straddle that). A primary
// never writes children after construction, so its RLock is always
// uncontended and Index's own methods read the slice without it.
type shardSet struct {
	dir string // root: SHARDS manifest + shard-NNN children

	mu       sync.RWMutex
	children []*promips.Index

	faultsMu sync.Mutex // guards faults
	faults   *Faults
}

// each calls fn on every child, in shard order, under the read lock.
func (ss *shardSet) each(fn func(c *promips.Index)) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for _, c := range ss.children {
		fn(c)
	}
}

// Search returns the global top-k c-AMIP points for q, fanned out across
// all shards in parallel and merged with a deterministic (inner product
// desc, id asc) order. The caller's (c, p) guarantee holds over the
// merged result: each shard runs at p_shard = 1 − (1−p)/K, so by the
// union bound every per-shard guarantee holds simultaneously with
// probability ≥ p, and the per-shard c-approximations compose (see the
// top of this file). WithC/WithP/WithFilter apply globally; the filter
// sees global ids. A Follower answers against its current replicated
// state.
func (ss *shardSet) Search(ctx context.Context, q []float32, k int, opts ...promips.SearchOption) ([]promips.Result, promips.SearchStats, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return fanSearch(ctx, ss.children, ss.getFaults(), q, k, opts)
}

// SearchBatch answers many queries on the GOMAXPROCS-sized worker pool
// Build uses; each in-flight query fans out across all K shards, so disk
// I/O overlaps GOMAXPROCS×K ways. Answers are identical to sequential
// Search calls.
func (ss *shardSet) SearchBatch(ctx context.Context, queries [][]float32, k int, opts ...promips.SearchOption) ([][]promips.Result, []promips.SearchStats, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return fanBatch(ctx, ss.children, ss.getFaults(), queries, k, opts)
}

// Exact returns the exact global top-k by scanning every shard in
// parallel — the ground truth Search approximates.
func (ss *shardSet) Exact(ctx context.Context, q []float32, k int) ([]promips.Result, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return fanExact(ctx, ss.children, q, k)
}

// Shards returns the shard count K.
func (ss *shardSet) Shards() int { return len(ss.children) }

// Dir returns the root directory (SHARDS manifest + shard
// subdirectories); a Follower's is the replica directory it owns.
func (ss *shardSet) Dir() string { return ss.dir }

// Dim returns the dataset dimensionality (uniform across shards).
func (ss *shardSet) Dim() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.children[0].Dim()
}

// M returns the projected dimensionality in use (uniform across shards:
// every child is built from the same options over same-dimensional data).
func (ss *shardSet) M() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.children[0].M()
}

// Len returns the total number of points in the disk-resident shards.
func (ss *shardSet) Len() (n int) {
	ss.each(func(c *promips.Index) { n += c.Len() })
	return n
}

// LiveCount returns the total number of live points across all shards.
func (ss *shardSet) LiveCount() (n int) {
	ss.each(func(c *promips.Index) { n += c.LiveCount() })
	return n
}

// JournalLen returns the total acknowledged updates pending across all
// shard journals. (A replica's own journals only grow by snapshot copy.)
func (ss *shardSet) JournalLen() (n int) {
	ss.each(func(c *promips.Index) { n += c.JournalLen() })
	return n
}

// JournalLens returns each shard's pending journal length, in shard
// order — the per-shard replication/recovery watermarks promipsd reports.
func (ss *shardSet) JournalLens() []int {
	ls := make([]int, 0, len(ss.children))
	ss.each(func(c *promips.Index) { ls = append(ls, c.JournalLen()) })
	return ls
}

// JournalPoisoned reports whether any shard's journal writer is poisoned:
// an append-path write/fsync failed, so new updates are being refused
// (ErrJournalPoisoned) until a Save heals it. Serving layers use it to
// fail writes fast at readiness rather than per-request. (Normally always
// false on a replica, whose journals only grow by snapshot copy.)
func (ss *shardSet) JournalPoisoned() (poisoned bool) {
	ss.each(func(c *promips.Index) { poisoned = poisoned || c.JournalPoisoned() })
	return poisoned
}

// Recovery sums what every shard's journal replay recovered at Open.
func (ss *shardSet) Recovery() (rs promips.RecoveryStats) {
	ss.each(func(c *promips.Index) {
		r := c.Recovery()
		rs.Replayed += r.Replayed
		rs.Skipped += r.Skipped
		rs.TruncatedBytes += r.TruncatedBytes
	})
	return rs
}

// CacheStats sums the page-read counters of every shard's I/O engine.
func (ss *shardSet) CacheStats() (cs promips.CacheStats) {
	ss.each(func(c *promips.Index) { cs = cs.Add(c.CacheStats()) })
	return cs
}

// UpdateStats sums the update-pipeline state — delta sizes, frozen
// segments, tombstones, the freeze counter — across all shards.
// A follower's segments come from WAL replay (its children freeze on the
// same thresholds the primary does), never from local writes, and a
// follower never compacts — segments fold only when a refreshed snapshot
// replaces the child wholesale or the follower is promoted.
func (ss *shardSet) UpdateStats() (us promips.UpdateStats) {
	ss.each(func(c *promips.Index) {
		u := c.UpdateStats()
		us.DeltaEntries += u.DeltaEntries
		us.Segments += u.Segments
		us.SegmentEntries += u.SegmentEntries
		us.Tombstones += u.Tombstones
		us.Freezes += u.Freezes
	})
	return us
}
