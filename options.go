package promips

import (
	"time"

	"promips/internal/core"
)

// A SearchOption adjusts one query (or one batch) without touching the
// index: the guarantee knobs are recomputed query-locally from Quick-Probe's
// two termination conditions, so concurrent queries can run with different
// (c, p) settings against one shared index.
type SearchOption func(*searchConfig)

// searchConfig is the resolved option set for one Search/SearchBatch call.
type searchConfig struct {
	params       core.SearchParams
	shardTimeout time.Duration
	requireAll   bool
}

func resolveOptions(opts []SearchOption) searchConfig {
	var cfg searchConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithC overrides the approximation ratio c ∈ (0,1) for this query. Every
// returned point then satisfies ⟨o,q⟩ ≥ c·⟨o*,q⟩ with the query's guarantee
// probability. Passing exactly 0 restores the index default; any other
// value outside (0,1) makes the query fail.
func WithC(c float64) SearchOption {
	return func(cfg *searchConfig) { cfg.params.C = c }
}

// WithP overrides the guarantee probability p ∈ (0,1) for this query.
// Larger p widens the probability-guaranteed search range: accuracy rises,
// and so do verified candidates and page accesses. Passing exactly 0
// restores the index default; any other value outside (0,1) makes the
// query fail.
func WithP(p float64) SearchOption {
	return func(cfg *searchConfig) { cfg.params.P = p }
}

// WithFilter restricts the query to points whose id the predicate accepts —
// predicate-constrained MIPS (e.g. "recommend only items the user has not
// seen"). Rejected points are neither verified nor returned; the (c, p)
// guarantee is made against the best point that passes the filter. The
// predicate must be fast and side-effect free: it runs once per candidate
// under the index's shared lock — and, when the option is passed to
// SearchBatch, concurrently from every worker goroutine, so it must also
// be safe for concurrent use (a pure function of the id, or reads of
// state that is not mutated during the batch).
func WithFilter(f func(id uint32) bool) SearchOption {
	return func(cfg *searchConfig) { cfg.params.Filter = f }
}

// WithShardTimeout bounds each shard's portion of a fanned-out search
// (promips/shard): a shard that has not answered within d is treated as
// failed — isolated and reported through SearchStats.Degraded in the
// default degraded mode, or failing the query under WithRequireAllShards.
// Zero (the default) means no per-shard deadline beyond the caller's
// context. A single, unsharded index ignores the option.
func WithShardTimeout(d time.Duration) SearchOption {
	return func(cfg *searchConfig) { cfg.shardTimeout = d }
}

// WithRequireAllShards makes a fanned-out search all-or-nothing: any shard
// error or per-shard timeout fails the whole query, as it did before
// degraded fan-out existed. Without it, a sharded search isolates failed
// shards and returns the merged results of the healthy ones with a
// SearchStats.Degraded report (provided at least one shard answered and
// the caller's own context is still live). A single index ignores the
// option.
func WithRequireAllShards() SearchOption {
	return func(cfg *searchConfig) { cfg.requireAll = true }
}

// ResolvedOptions is the settled view of a SearchOption slice — what the
// opaque functional options amount to for one call. A fan-out layer
// (promips/shard) needs it to re-derive per-child options: split the
// guarantee probability across shards, rewrap the filter for each child's
// local id space, and bound or gate each shard's part of the query. Zero
// values mean "index default", exactly as the options themselves do.
type ResolvedOptions struct {
	// C and P are the per-query guarantee overrides (0 = index default).
	C, P float64
	// Filter is the id predicate, or nil.
	Filter func(id uint32) bool
	// ShardTimeout is the per-shard deadline of a fanned-out search
	// (0 = none).
	ShardTimeout time.Duration
	// RequireAllShards makes the fan-out all-or-nothing instead of
	// degrading around failed shards.
	RequireAllShards bool
}

// ResolveSearchOptions applies opts to a fresh configuration and returns
// the resulting settings. It does not touch any index.
func ResolveSearchOptions(opts ...SearchOption) ResolvedOptions {
	cfg := resolveOptions(opts)
	return ResolvedOptions{
		C: cfg.params.C, P: cfg.params.P,
		Filter:           cfg.params.Filter,
		ShardTimeout:     cfg.shardTimeout,
		RequireAllShards: cfg.requireAll,
	}
}
