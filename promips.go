// Package promips is a from-scratch Go implementation of ProMIPS — the
// probability-guaranteed c-approximate Maximum Inner Product Search of
// Song, Gu, Zhang and Yu ("ProMIPS: Efficient High-Dimensional
// c-Approximate Maximum Inner Product Search with a Lightweight Index",
// ICDE 2021).
//
// Given a dataset D of n points and a query q in R^d, a c-AMIP search
// returns a point o with ⟨o,q⟩ ≥ c·⟨o*,q⟩, where o* is the exact MIP point.
// ProMIPS projects points to m dimensions with 2-stable random projections,
// indexes the projections in a disk-resident iDistance structure whose
// only index is a small in-memory ring directory (the paper's single
// B+-tree), and terminates its range search through two derived conditions
// that guarantee the c-AMIP answer with any requested probability p. The
// Quick-Probe procedure determines the search range up front from m-bit
// sign codes and data norms, avoiding an incremental NN scan.
//
// # Quick start
//
//	index, err := promips.Build(data, promips.Options{Dir: dir, C: 0.9, P: 0.5})
//	if err != nil { ... }
//	defer index.Close()
//	results, stats, err := index.Search(ctx, query, 10)
//
// Results come back best-first with exact inner products; stats reports the
// verified candidate count and disk pages touched.
//
// # Lifecycle
//
// An index lives in a directory and survives the process that built it:
//
//	Build ─→ Insert/Delete ─→ Save ─→ Close          (persist)
//	Open  ─→ Search/Insert/… ─→ Compact ─→ Save …    (reopen, maintain)
//
// Save persists the full query-visible state — including inserted points
// awaiting compaction and tombstones — so Open returns an index that
// answers exactly as the saved one did. Compact folds the delta and drops
// tombstones by rebuilding into a fresh generation subdirectory and
// atomically swapping it in; searches keep running throughout. See the
// examples/ directory for complete programs and DESIGN.md for the system
// layout, the generation-directory swap protocol and the error taxonomy.
//
// # Durability
//
// Acknowledged updates survive crashes, not just Saves: every Insert and
// Delete appends a checksummed record to a write-ahead journal (wal.log in
// the active generation) and returns only once an fsync covers it.
// Concurrent updaters share their fsyncs (group commit). Open replays the
// journal on top of the last Save and reports the result via Recovery; Save
// and Compact empty the journal once the delta is durable in the metadata.
// Crash consistency at every write/rename/fsync boundary is exercised by a
// deterministic fault-injection matrix; see DESIGN.md, "Durability &
// recovery".
//
// # Per-query options
//
// Search, SearchIncremental and SearchBatch accept functional options:
// WithC and WithP re-derive the paper's two termination conditions with
// query-local guarantees, and WithFilter restricts the search to ids a
// predicate accepts. SearchBatch runs on the GOMAXPROCS-sized pool Build
// uses; nothing sizes it per call. All queries take a context and stop
// between iDistance sub-partition scans (and, for batches, between
// queries) once it is cancelled.
package promips

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"promips/internal/core"
	"promips/internal/fsutil"
	"promips/internal/par"
)

// Options configures Build. The zero value reproduces the paper's default
// setting: c = 0.9, p = 0.5, optimized projected dimension and 4KB pages.
// The iDistance partition pattern is fixed at the paper's kp = 5 k-means
// partitions, Nkey = 40 rings per partition (ring width derived from the
// data) and ksp = 10 sub-partitions per ring.
type Options struct {
	// Dir is the directory for the index's page files. Empty means a fresh
	// temporary directory (removed on Close unless the index was Saved).
	Dir string

	// C is the approximation ratio c ∈ (0,1). Default 0.9.
	C float64
	// P is the guarantee probability p ∈ (0,1). Default 0.5.
	P float64
	// M is the projected dimensionality; 0 selects the paper's optimized
	// m = argmin 2^m(m+1) + n/2^m.
	M int

	// PageSize is the disk page size in bytes (default 4096). Vectors must
	// fit in one page: use larger pages for very high dimensions, as the
	// paper does for P53 (64KB).
	PageSize int
	// PoolSize is the per-file memory budget in pages (default 1024): a
	// page file (the projected data, the vector store) of at most this many
	// pages keeps each page in memory from its first read on, and a larger
	// one is read from disk on every page access. The
	// in-memory int8 copy of the store, which every index has whatever its
	// PoolSize, settles most verifications without a read. A store read
	// from disk makes the verifications that do read dearer, so a query
	// switches to its exact sequential scan sooner (TerminatedBy "scan"):
	// PoolSize can turn an approximate answer into an exact one, never the
	// other way, and an answer that is not a scan at one PoolSize is the
	// same at every larger one.
	PoolSize int

	// Seed fixes all randomness (projections, clustering).
	Seed int64

	// SegmentEntries sets how many inserts accumulate in the mutable
	// in-memory delta before it freezes into an immutable, searchable
	// in-memory segment (see DESIGN.md, "Update segments & snapshot
	// reads"). A value ≤ 0 selects the default (4096). Persisted with the
	// index, so Open keeps the build-time value.
	SegmentEntries int

	// fs is the filesystem seam persistence writes through; nil means the
	// real filesystem. Unexported: it exists for the deterministic
	// crash-injection tests; other packages in this module set it with
	// WithFS.
	fs fsutil.FS
}

// WithFS returns a copy of o whose persistence writes go through fsys —
// the deterministic crash-injection seam (internal/fsutil.FaultFS). The
// parameter type is internal on purpose: only packages inside this module
// (promips/shard's crash matrix) can name an fsutil.FS, so the seam stays
// module-private while still composing across package boundaries. nil
// restores the real filesystem.
func (o Options) WithFS(fsys fsutil.FS) Options {
	o.fs = fsys
	return o
}

// Result is one returned point: its id (position in the Build slice) and
// exact inner product with the query.
type Result = core.Result

// SearchStats describes the work a query performed; see core.SearchStats.
// TerminatedBy is "A", "B", "exhausted" or "scan" (the query fell back to
// one sequential scan and its results are the exact top-k); a sharded
// search joins its shards' distinct reasons with "+".
type SearchStats = core.SearchStats

// DegradedStats reports a degraded sharded fan-out — which shards answered
// and the union-bound guarantee the merged result still carries; see
// core.DegradedStats and DESIGN.md, "Failure domains & degradation". It is
// carried by SearchStats.Degraded and is always nil for a single index.
type DegradedStats = core.DegradedStats

// SizeBreakdown itemizes index storage.
type SizeBreakdown = core.SizeBreakdown

// CacheStats aggregates the I/O engine's page-read counters across every
// page file the index reads through (the iDistance projected data and the
// original-vector store). These are whole-index, whole-run counters —
// concurrent queries all add to them — so two snapshots bracket a measured
// interval; per-query accounting lives in SearchStats instead.
type CacheStats struct {
	// Accesses is the number of logical page reads.
	Accesses int64
	// Hits counts page reads served from the pages a file within
	// Options.PoolSize keeps in memory, Misses those read from the file.
	Hits, Misses int64
	// Evictions is always zero.
	//
	// Deprecated: a page file either keeps every page it reads in memory or
	// reads from disk on every access, so nothing is ever evicted. The field stays only
	// because e2ebench/run.go reads it for its pager.evictions_per_query
	// row, and goes when that row does.
	Evictions int64
}

// HitRatio returns Hits/Accesses, or 0 before any reads.
func (s CacheStats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Sub returns s - t component-wise, for bracketing an interval.
func (s CacheStats) Sub(t CacheStats) CacheStats {
	return CacheStats{
		Accesses: s.Accesses - t.Accesses,
		Hits:     s.Hits - t.Hits,
		Misses:   s.Misses - t.Misses,
	}
}

// Add returns s + t component-wise — aggregation across page files is how
// CacheStats itself is produced, and the sharded index and its serving
// stats aggregate one level further, across child indexes.
func (s CacheStats) Add(t CacheStats) CacheStats {
	return CacheStats{
		Accesses: s.Accesses + t.Accesses,
		Hits:     s.Hits + t.Hits,
		Misses:   s.Misses + t.Misses,
	}
}

// currentFile names the generation pointer inside an index directory. Its
// content is the active generation subdirectory, or "." when the index
// lives in the directory root (as Build lays it out).
const currentFile = "CURRENT"

// Index is a ProMIPS index over a dataset. An Index is safe for concurrent
// use: any number of goroutines may call Search, SearchIncremental, Exact
// and the accessors simultaneously; Insert/Delete interleave correctly
// with them (searches see either the state before or after an update,
// never a partial one); and Compact rebuilds in the background, swapping
// the new generation in atomically. Every query accounts its page accesses
// in a private accumulator, so SearchStats stays exact — the paper's
// per-query Page Access metric — under any level of concurrency. See
// DESIGN.md for the locking contract layer by layer.
type Index struct {
	inner *core.Index

	// fs is the filesystem seam the lifecycle writes (CURRENT, via
	// writeCurrent) go through. Assigned once at Build/Open.
	fs fsutil.FS

	// mu serializes the lifecycle operations (Save, Compact, Close) and
	// guards the fields below; queries and updates go straight to inner,
	// whose own lock orders them against Compact's swap.
	mu         sync.Mutex
	dir        string
	gen        string // active generation subdirectory; "" = dir itself
	durableGen string // the generation CURRENT names on disk (trails gen only after Compact's committed-corner fsync failure)
	ownsDir    bool   // Build created dir as a temp directory
	saved      bool   // the caller persisted the index with Save
}

// Build constructs an index over data. Every point must share one
// dimensionality; point i is identified by uint32(i) in results. The work
// runs on runtime.GOMAXPROCS(0) workers and the index written is the same,
// byte for byte, at any worker count.
func Build(data [][]float32, opts Options) (*Index, error) {
	dir := opts.Dir
	ownsDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "promips-*")
		if err != nil {
			return nil, fmt.Errorf("promips: temp dir: %w", err)
		}
		dir, ownsDir = d, true
	}
	fsys := opts.fs
	if fsys == nil {
		fsys = fsutil.OS
	}
	coreOpts := core.Options{
		C: opts.C, P: opts.P, M: opts.M,
		PageSize: opts.PageSize, PoolSize: opts.PoolSize,
		Seed:           opts.Seed,
		SegmentEntries: opts.SegmentEntries,
	}.WithFS(fsys)
	inner, err := core.Build(context.Background(), data, dir, coreOpts)
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	return &Index{inner: inner, fs: fsys, dir: dir, ownsDir: ownsDir}, nil
}

// Open loads an index previously persisted to dir with Save, replaying
// the write-ahead journal on top of the persisted state: updates that were
// acknowledged but not yet folded into a Save are recovered (Recovery reports how many). The returned index
// serves queries immediately and supports the full lifecycle — updates,
// Save, Compact. State that claims to be an index but cannot be loaded —
// an undecodable metadata or page file, an invalid CURRENT, a journal
// whose content no crash could have produced, or a CURRENT naming a
// generation whose files are gone — surfaces as ErrCorruptIndex; a
// directory that simply was never saved surfaces the underlying fs error.
func Open(dir string) (*Index, error) { return openFS(dir, fsutil.OS) }

// openFS is Open through an explicit filesystem seam. Recovery writes
// (truncating a torn journal tail) go through it, so the crash harness can
// crash recovery itself.
func openFS(dir string, fsys fsutil.FS) (*Index, error) {
	gen, err := readCurrent(fsys, dir)
	if err != nil {
		return nil, err
	}
	inner, err := core.OpenFS(filepath.Join(dir, gen), fsys)
	if err != nil {
		if gen != "" && errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("promips: %w: %s names generation %q but its files are missing: %v",
				ErrCorruptIndex, currentFile, gen, err)
		}
		return nil, err
	}
	sweepStaleGenerations(dir, gen)
	return &Index{inner: inner, fs: fsys, dir: dir, gen: gen, durableGen: gen, saved: true}, nil
}

// rootGenerationFiles are the files one generation consists of, as laid
// out by Build (page files) and Save (meta). removeGeneration and
// sweepStaleGenerations both rely on this list to retire a root-layout
// generation without touching CURRENT or the gen-* subdirectories beside
// it.
var rootGenerationFiles = []string{"idist.data", "idist.btree", "idist.meta", "orig.data", "promips.meta", "wal.log"}

// sweepStaleGenerations removes (best-effort) every generation other than
// the one CURRENT durably names: a crash between Compact's CURRENT flip
// and its old-generation removal — or during a generation build — leaves
// superseded or partial files that nothing will ever reference again.
// CURRENT is the single source of truth, so everything else is garbage.
// (Indexes are single-process; there is no other opener to race with.)
func sweepStaleGenerations(dir, active string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && e.Name() != active {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	if active != "" {
		// The root generation was superseded by a gen-* subdirectory.
		for _, name := range rootGenerationFiles {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Search returns the top-k c-AMIP points for q, best inner product first.
// With probability at least p, every returned point oi satisfies
// ⟨oi,q⟩ ≥ c·⟨o*i,q⟩ against the exact i-th MIP point o*i; (c, p) default
// to the build-time options and are overridden per query with WithC and
// WithP. WithFilter restricts the search to accepted ids. Cancelling ctx
// stops the scan between iDistance sub-partitions and returns ctx.Err().
func (ix *Index) Search(ctx context.Context, q []float32, k int, opts ...SearchOption) ([]Result, SearchStats, error) {
	cfg := resolveOptions(opts)
	return ix.inner.SearchContext(ctx, q, k, cfg.params)
}

// SearchBatch answers many queries concurrently against the shared index
// on the worker pool Build uses: runtime.GOMAXPROCS(0) workers, at most one
// per query. Results and stats are positionally aligned with queries, and
// each query's answer is identical to what a sequential Search with the
// same options would return: workers share the read lock and the buffer
// pool but account their I/O privately. The first query error stops the
// remaining work and is returned; cancelling ctx stops the batch between
// queries with ctx.Err().
func (ix *Index) SearchBatch(ctx context.Context, queries [][]float32, k int, opts ...SearchOption) ([][]Result, []SearchStats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	params := resolveOptions(opts).params
	results := make([][]Result, len(queries))
	stats := make([]SearchStats, len(queries))
	err := par.Do(ctx, len(queries), func(i int) (err error) {
		if results[i], stats[i], err = ix.inner.SearchContext(ctx, queries[i], k, params); err != nil {
			return fmt.Errorf("promips: batch query %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// SearchIncremental answers the same query with the paper's Algorithm 1
// (incremental NN search with per-point condition tests) instead of
// Quick-Probe. It exists for comparison; Search is the recommended path.
// It honors the same options and cancellation points as Search.
func (ix *Index) SearchIncremental(ctx context.Context, q []float32, k int, opts ...SearchOption) ([]Result, SearchStats, error) {
	cfg := resolveOptions(opts)
	return ix.inner.SearchIncrementalContext(ctx, q, k, cfg.params)
}

// Exact returns the true top-k MIP points by scanning the dataset. It is
// provided for evaluation (overall ratio, recall) and small workloads.
// Like Search, it takes a context: the scan is linear in the dataset and
// stops with ctx.Err() when cancelled — which is what lets a sharded
// fan-out (promips/shard) abandon an exact merge as soon as one shard
// fails or the caller gives up.
func (ix *Index) Exact(ctx context.Context, q []float32, k int) ([]Result, error) {
	return ix.inner.Exact(ctx, q, k)
}

// NextID returns the id the next Insert would assign. Ids are dense —
// base points then delta entries, never freed by deletes — so NextID is
// also the total number of ids ever assigned in this generation. The
// sharded index routes each Insert to the child whose next composed id is
// smallest, which keeps the global id space exactly as dense as a single
// index's.
func (ix *Index) NextID() uint32 { return ix.inner.NextID() }

// WALApply reports what ApplyWALChunk did with a shipped journal chunk.
type WALApply struct {
	// Applied is the number of records that changed this index's state.
	Applied int
	// Skipped is the number of records the state already covered —
	// re-shipping a whole journal skips everything previously applied.
	Skipped int
	// Records is the total number of complete records decoded: the
	// replica's LSN watermark into the shipped log (a torn trailing record
	// is not counted; it was never acknowledged by the primary).
	Records int
	// Bytes is the length of the valid prefix consumed from the passed
	// chunk — the replication byte offset advances by exactly this much,
	// so a chunk torn in flight costs only a re-fetch of its tail. Zero
	// when the apply failed partway (the offset is no longer resumable and
	// the shard must re-snapshot).
	Bytes int64
}

// ApplyWALChunk replays a chunk of another index's write-ahead journal
// (raw bytes of its wal.log) on top of this one — the replication hook
// shard.Follower tails a primary with. cont=false means b starts at the top
// of the journal file (header included); cont=true means b is a headerless
// record suffix resuming from a record boundary (what a primary serves for
// a tail request at offset N > 0). The bytes may be read mid-append, or
// truncated in flight: a torn trailing record is ignored under the
// journal's clean-truncation rule, and WALApply.Bytes tells the caller
// where to resume. Complete records are applied through the same
// idempotent path crash recovery uses, and nothing is re-journaled
// locally; feeding the same bytes again is a no-op. An error wrapping
// ErrCorruptIndex means the bytes cannot be a journal state (or the log
// skips ahead of this replica — it missed an epoch and must re-snapshot);
// the successfully applied prefix stays applied.
func (ix *Index) ApplyWALChunk(b []byte, cont bool) (WALApply, error) {
	applied, skipped, records, bytes, err := ix.inner.ApplyWALChunk(b, cont)
	return WALApply{Applied: applied, Skipped: skipped, Records: records, Bytes: bytes}, err
}

// Insert adds a point to the index and returns its id. Inserted points
// live in an exactly-evaluated in-memory delta until Compact; searches see
// them immediately and the (c, p) guarantee is preserved. This is the
// frequently-updated workload (§I of the paper) the lightweight index is
// designed for.
//
// Durability: the insert is appended to the write-ahead journal and fsynced
// before it is acknowledged, so a successful return means the point
// survives a crash even without a Save. Inserting a vector of the
// wrong dimensionality returns ErrDimMismatch; inserting into a closed
// index returns ErrClosed; a journal write failure returns the I/O error
// and the insert is not applied.
func (ix *Index) Insert(v []float32) (uint32, error) { return ix.inner.Insert(v) }

// Delete tombstones the point with the given id and reports whether it was
// live. Deleted points stop appearing in results immediately. The boolean
// conflates "id absent" with "index closed" and "journal failed" — use
// DeleteChecked to tell them apart.
func (ix *Index) Delete(id uint32) bool { return ix.inner.Delete(id) }

// DeleteChecked tombstones like Delete but reports failure modes as typed
// errors: (false, ErrClosed) on a closed index, (false, err) when the
// tombstone could not be journaled (the delete is then not applied), and
// (false, nil) only when the id was genuinely absent or already deleted.
// Deletes are journaled, fsynced and replayed exactly like inserts: a
// successful return survives a crash.
func (ix *Index) DeleteChecked(id uint32) (bool, error) { return ix.inner.DeleteChecked(id) }

// JournalLen returns the number of update records sitting in the
// write-ahead journal — those a crash-recovery Open would decode. Save and
// Compact fold them into the persisted metadata and empty the journal.
func (ix *Index) JournalLen() int { return ix.inner.JournalLen() }

// JournalPoisoned reports whether the write-ahead journal is refusing
// acknowledgements: updates bounce with ErrJournalPoisoned until a
// successful Save heals the journal through the metadata path. promipsd's
// /v1/readyz uses it to mark a primary alive-but-not-ready for writes.
func (ix *Index) JournalPoisoned() bool { return ix.inner.JournalPoisoned() }

// UpdateStats describes the state of the update pipeline — mutable-delta
// size, frozen segments, tombstones, and the lifetime freeze counter; see
// core.UpdateStats.
type UpdateStats = core.UpdateStats

// UpdateStats reports the update pipeline's current state. The Segments
// count is what automatic background compaction triggers on (see
// StartAutoCompact).
func (ix *Index) UpdateStats() UpdateStats { return ix.inner.UpdateStats() }

// RecoveryStats reports what the journal replay at Open recovered; see
// core.RecoveryStats.
type RecoveryStats = core.RecoveryStats

// Recovery describes what Open's journal replay did: how many acknowledged
// updates were recovered on top of the last Save, how many journal records
// the metadata already covered, and whether a torn record tail was cleanly
// truncated. Zero for a freshly built index.
func (ix *Index) Recovery() RecoveryStats { return ix.inner.Recovery() }

// Save persists the index's full query-visible state — metadata, the
// insert delta, tombstones — into its directory, next to the page files,
// and marks the directory as the caller's: Close no longer removes it even
// when Build created it as a temporary. A saved directory reopens with
// Open. Once the metadata is durable, the write-ahead journal is emptied:
// its updates are covered by the meta from here on (a crash between the
// two is safe — replay is idempotent).
func (ix *Index) Save() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.durableGen != ix.gen {
		// Complete the handover a committed-corner Compact left behind —
		// BEFORE inner.Save, whose journal Reset clears the poison that
		// was guarding acknowledgements: the pointer must be durable
		// first, or a crash would still recover the old generation
		// without the post-compact updates. ix.gen's files are complete
		// on disk (Compact persisted them before attempting the flip), so
		// flipping here is safe, and once it sticks the superseded
		// generation is garbage.
		if err := writeCurrent(ix.fs, ix.dir, ix.gen); err != nil {
			return err
		}
		ix.removeGeneration(ix.durableGen)
		ix.durableGen = ix.gen
	}
	if err := ix.inner.Save(filepath.Join(ix.dir, ix.gen)); err != nil {
		return err
	}
	if err := writeCurrent(ix.fs, ix.dir, ix.gen); err != nil {
		return err
	}
	ix.durableGen = ix.gen
	ix.saved = true
	return nil
}

// Compact folds the insert delta into the disk-resident structures and
// drops tombstoned points. It rebuilds into a fresh generation
// subdirectory (gen-000001, gen-000002, …) while searches keep answering
// against the old generation, then — in one exclusive section — folds in
// the updates that landed mid-rebuild, persists the new generation's
// metadata, atomically flips the CURRENT pointer, swaps the new
// generation in, and retires the old generation's files. Ids are
// reassigned densely (0..Len-1); remap[newID] gives the previous id so
// callers can relocate external references.
//
// The handover is atomic with respect to both crashes and updates: the
// new generation's files are durable before CURRENT names them, and no
// update can be acknowledged into the new generation's journal before the
// flip — so recovery at any instant loads a generation together with the
// journal holding its acknowledged updates, and the write-ahead guarantee
// holds across compaction. Cancelling ctx before the swap leaves the
// index untouched.
//
// Error contract: on error the index is untouched — still serving and
// journaling the old generation — and the returned remap is nil, with one
// narrow exception: if the pointer flip became visible but could not be
// made durable (a directory fsync failed after the rename — a drive-level
// failure), the swap completes and the VALID remap is returned with the
// error. In that corner, updates fail until a Save completes
// the handover — an acknowledgement whose crash durability the pointer
// cannot back yet is refused, not faked — so the caller's recovery is:
// apply the remap, Save, resume updating.
func (ix *Index) Compact(ctx context.Context) ([]uint32, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	nextGen := fmt.Sprintf("gen-%06d", genSeq(ix.gen)+1)
	genDir := filepath.Join(ix.dir, nextGen)
	remap, err := ix.inner.Compact(ctx, genDir, func(next *core.Index) (bool, error) {
		// next.Save writes both meta files via temp+rename and fsyncs
		// genDir, so every dirent of the new generation is durable before
		// CURRENT starts naming it — a crash cannot persist the pointer
		// flip while losing the files it points at.
		if err := next.Save(genDir); err != nil {
			return false, fmt.Errorf("promips: compact: persist new generation: %w", err)
		}
		committed, err := writeCurrentCommitted(ix.fs, ix.dir, nextGen)
		if err != nil {
			err = fmt.Errorf("promips: compact: %w", err)
		}
		return committed, err
	})
	if remap == nil {
		if err != nil {
			// Nothing happened: the index still serves the old generation
			// and nothing — CURRENT included — references genDir, so the
			// partial build is removable.
			os.RemoveAll(genDir)
			return nil, err
		}
		return nil, fmt.Errorf("promips: compact: nil remap without error")
	}
	// The swap happened and CURRENT names nextGen (durably, unless err
	// reports the fsync corner). Retire every generation it supersedes —
	// the one the swap replaced AND, if an earlier committed-corner error
	// left durableGen trailing, the generation it still named.
	oldGen := ix.gen
	ix.gen = nextGen
	if err != nil {
		// Committed corner: keep the superseded files until a Save
		// confirms durability (it re-runs writeCurrent's fsync and then
		// retires the trailing generation).
		return remap, err
	}
	retired := map[string]bool{oldGen: true, ix.durableGen: true}
	delete(retired, nextGen)
	for gen := range retired {
		ix.removeGeneration(gen)
	}
	ix.durableGen = nextGen
	return remap, nil
}

// removeGeneration deletes a superseded generation's files. The root
// generation lives next to CURRENT and the gen-* subdirectories, so its
// files go individually; a gen directory goes wholesale.
func (ix *Index) removeGeneration(gen string) {
	if gen == "" {
		for _, name := range rootGenerationFiles {
			os.Remove(filepath.Join(ix.dir, name))
		}
		return
	}
	os.RemoveAll(filepath.Join(ix.dir, gen))
}

// LiveCount returns the number of live (non-deleted) points, including
// not-yet-compacted inserts.
func (ix *Index) LiveCount() int { return ix.inner.LiveCount() }

// Len returns the number of points in the disk-resident index (compaction
// folds the delta in, so Len can change over the index's lifetime).
func (ix *Index) Len() int { return ix.inner.Len() }

// Dim returns the dataset dimensionality.
func (ix *Index) Dim() int { return ix.inner.Dim() }

// M returns the projected dimensionality in use.
func (ix *Index) M() int { return ix.inner.M() }

// Sizes itemizes the index's storage footprint.
func (ix *Index) Sizes() SizeBreakdown { return ix.inner.Sizes() }

// CacheStats snapshots the page-read counters of the index's I/O engine.
func (ix *Index) CacheStats() CacheStats {
	s := ix.inner.CacheStats()
	return CacheStats{Accesses: s.Accesses, Hits: s.Hits, Misses: s.Misses}
}

// Options returns the configuration the index was built with (Dir set to
// the index directory). ix.dir is assigned once and never mutated, so no
// lifecycle lock is taken — the accessor stays responsive while Compact
// holds it for a rebuild.
func (ix *Index) Options() Options {
	o := ix.inner.Options()
	return Options{
		Dir: ix.dir,
		C:   o.C, P: o.P, M: o.M,
		PageSize: o.PageSize, PoolSize: o.PoolSize,
		Seed:           o.Seed,
		SegmentEntries: o.SegmentEntries,
	}
}

// Dir returns the directory holding the index (generation subdirectories
// and the CURRENT pointer live underneath it). Like Options, it reads only
// immutable state and never blocks on a running Compact.
func (ix *Index) Dir() string { return ix.dir }

// Close releases the page files. When Build created a temporary directory
// and the index was never Saved, the directory is removed; a saved or
// caller-provided directory always survives Close. Operations after Close
// return ErrClosed.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	err := ix.inner.Close()
	if ix.ownsDir && !ix.saved {
		if rmErr := os.RemoveAll(ix.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// genSeq extracts the sequence number of a generation subdirectory name
// ("" — the root — is generation 0).
func genSeq(gen string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(gen, "gen-"))
	return n
}

// readCurrent resolves the active generation recorded in dir's CURRENT
// file. A missing file means the root layout Build produces.
func readCurrent(fsys fsutil.FS, dir string) (string, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", nil
		}
		return "", fmt.Errorf("promips: read %s: %w", currentFile, err)
	}
	return parseCurrent(b)
}

// parseCurrent validates CURRENT's content — the trust boundary between
// the filesystem and the generation machinery, so arbitrary bytes must
// yield ErrCorruptIndex, never a path escape (pinned by FuzzParseCurrent).
func parseCurrent(b []byte) (string, error) {
	gen := strings.TrimSpace(string(b))
	if gen == "." {
		return "", nil
	}
	if gen == "" || strings.ContainsAny(gen, "/\\") || !strings.HasPrefix(gen, "gen-") {
		return "", fmt.Errorf("promips: %w: %s names invalid generation %q", ErrCorruptIndex, currentFile, gen)
	}
	return gen, nil
}

// writeCurrent atomically records gen as dir's active generation (write to
// a temp file, fsync, rename, fsync the directory).
func writeCurrent(fsys fsutil.FS, dir, gen string) error {
	_, err := writeCurrentCommitted(fsys, dir, gen)
	return err
}

// writeCurrentCommitted is writeCurrent reporting whether the pointer
// flip became visible. The rename inside WriteAtomic is the commit point:
// every WriteAtomic failure leaves CURRENT untouched (failures before the
// rename never touch it, and rename(2) makes no change when it fails), so
// WriteAtomic error ⇒ committed=false. A directory-fsync failure AFTER
// the rename leaves the flip visible but of uncertain durability
// (committed=true with the error). Compact's handover branches on exactly
// this distinction. The directory fsync is load-bearing: without it, a
// crash could persist the caller's subsequent old-generation unlinks but
// not the rename, leaving CURRENT pointing at files that no longer exist.
func writeCurrentCommitted(fsys fsutil.FS, dir, gen string) (bool, error) {
	content := gen
	if content == "" {
		content = "."
	}
	err := fsutil.WriteAtomic(fsys, filepath.Join(dir, currentFile), func(f fsutil.File) error {
		_, err := f.Write([]byte(content + "\n"))
		return err
	})
	if err != nil {
		return false, fmt.Errorf("promips: %w", err)
	}
	if err := fsutil.SyncDir(fsys, dir); err != nil {
		return true, fmt.Errorf("promips: %w", err)
	}
	return true, nil
}
