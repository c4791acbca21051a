// Package core implements ProMIPS itself: the probability-guaranteed
// c-AMIP search of Song, Gu, Zhang and Yu (ICDE 2021). It ties together the
// substrates — 2-stable projections (internal/randproj), the chi-square
// machinery (internal/stats), the disk-resident iDistance index
// (internal/idistance) and the original-vector store (internal/store) —
// into the pre-process and searching process of the paper's Fig. 2:
//
//	Pre-process:  project points and compute norms and sign codes for
//	              Quick-Probe; then, side by side, the in-memory PQ sketch
//	              and the disk half — build iDistance, lay original points
//	              out on disk in sub-partition order. On every core, same
//	              bytes at any core count (Build; DESIGN.md, "Build
//	              pipeline").
//	Search:       Quick-Probe locates a point whose projected distance
//	              seeds a range search (Algorithm 3 / MIP-Search-II);
//	              candidates are verified by true inner product; Conditions
//	              A and B decide termination, with a range extension to
//	              r' = sqrt(Ψm⁻¹(p)·(‖oM‖²+‖q‖²−2⟨omax,q⟩/c)) when the
//	              estimated range falls short of the probability guarantee.
//
// Algorithm 1 (incremental NN + per-point condition tests) is also provided
// as SearchIncremental for the ablation benchmarks.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"promips/internal/errs"
	"promips/internal/fsutil"
	"promips/internal/idistance"
	"promips/internal/pager"
	"promips/internal/par"
	"promips/internal/pq"
	"promips/internal/randproj"
	"promips/internal/store"
	"promips/internal/vec"
	"promips/internal/wal"
)

// Options configures index construction and the default query parameters.
// Zero values take the paper's defaults (§VIII-A-4).
type Options struct {
	// C is the approximation ratio c ∈ (0,1); results satisfy
	// ⟨o,q⟩ ≥ c·⟨o*,q⟩ with probability at least P. Default 0.9.
	C float64
	// P is the guarantee probability p ∈ (0,1). Default 0.5.
	P float64
	// M is the projected dimensionality; 0 selects the optimized
	// m = argmin 2^m(m+1)+n/2^m of §V-B.
	M int
	// Kp, Nkey, Ksp control the iDistance partition pattern
	// (defaults 5, 40, 10).
	Kp, Nkey, Ksp int
	// Epsilon is the iDistance ring width; 0 derives it from the data.
	Epsilon float64
	// PageSize is the disk page size in bytes (default 4096; the paper
	// uses 65536 for the 5408-dimensional P53 dataset).
	PageSize int
	// PoolSize is the memory budget in pages per page file: a file of at
	// most this many pages keeps each page in memory from its first read
	// on, a larger one is read from disk on every access
	// (pager.Options.PoolSize). A vector store
	// read from disk lowers the runaway budget from n/4 to n/12; the int8
	// screen rows exist whatever its size.
	PoolSize int
	// Seed makes projections and clustering deterministic.
	Seed int64
	// SegmentEntries caps the mutable update delta: once it holds this many
	// inserts it freezes into an immutable, searchable in-memory segment
	// (see segment.go). ≤ 0 selects the default (4096). Persisted in the
	// metadata like the other build knobs.
	SegmentEntries int

	// Fsync is a retired persisted value, kept only so Open can read it:
	// metadata written by older versions carries the fsync policy the index
	// was built with, and gob decodes a nested field only into a field of
	// the same name. Build ignores it and Save writes it as 0. The one value
	// Open acts on is 2, the retired no-journal policy, under which Build
	// left any wal.log it found in place — so that log may belong to another
	// index, and Open recreates it instead of replaying it (see OpenFS).
	Fsync int

	// fs is the filesystem seam persistence writes through; nil means the
	// real filesystem. Unexported so gob skips it when the Options ride
	// inside coreMeta; set it with WithFS.
	fs fsutil.FS
}

// defaultSegmentEntries is the delta freeze threshold when
// Options.SegmentEntries is not positive.
const defaultSegmentEntries = 4096

// segmentEntries resolves the freeze threshold, always positive. A legacy
// metadata may carry a negative value (it once meant "never freeze"); freeze
// boundaries never change an answer, so it simply opens with the default.
func (o Options) segmentEntries() int {
	if o.SegmentEntries <= 0 {
		return defaultSegmentEntries
	}
	return o.SegmentEntries
}

// WithFS returns a copy of o whose persistence goes through fsys — the
// crash-injection seam. The zero/nil value means the real filesystem.
func (o Options) WithFS(fsys fsutil.FS) Options {
	o.fs = fsys
	return o
}

// fsys resolves the filesystem seam.
func (o Options) fsys() fsutil.FS {
	if o.fs == nil {
		return fsutil.OS
	}
	return o.fs
}

func (o *Options) normalize() error {
	if o.C == 0 {
		o.C = 0.9
	}
	if o.P == 0 {
		o.P = 0.5
	}
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("core: approximation ratio c must be in (0,1), got %v", o.C)
	}
	if o.P <= 0 || o.P >= 1 {
		return fmt.Errorf("core: probability p must be in (0,1), got %v", o.P)
	}
	if o.PageSize <= 0 {
		o.PageSize = pager.DefaultPageSize
	}
	return nil
}

// group is one Quick-Probe bucket: the points sharing an m-bit sign code.
// Only the member with the smallest 1-norm matters at query time (it
// maximizes LB²/(c·(‖o‖₁+‖q‖₁)²) within the group), so that is all we keep
// in memory (16 bytes a group); the paper likewise stores per-group sorted
// 1-norms.
type group struct {
	minNorm1 float64
	code     uint32
	minPos   uint32 // the member's layout position
}

// locateGroups returns the groups gm describes, each member located by one
// pass over layout (position → id); the ids are not kept.
func locateGroups(gm []groupMeta, layout []uint32) []group {
	pos := make(map[uint32]uint32, len(gm))
	for _, g := range gm {
		pos[g.MinID] = 0
	}
	for p, id := range layout {
		if _, ok := pos[id]; ok {
			pos[id] = uint32(p)
		}
	}
	groups := make([]group, len(gm))
	for i, g := range gm {
		groups[i] = group{code: g.Code, minNorm1: g.MinNorm1, minPos: pos[g.MinID]}
	}
	return groups
}

// Result is one returned point with its exact inner product to the query.
type Result struct {
	ID uint32
	IP float64
}

// SearchStats reports the work one query performed.
type SearchStats struct {
	// Candidates is the number of points verified by exact inner product —
	// the verification sequence of the paper's algorithm, whichever copy of
	// a point settled its verification: one the int8 screen proved unable to
	// enter the top-k (its inner product is then never computed, nor its
	// store page read; DESIGN.md, "Int8 screen") counts like one read from
	// the store.
	Candidates int
	// PageAccesses counts the distinct disk pages the query's verification
	// sequence and range search touch across the iDistance pagers and the
	// vector store — the paper's Page Access metric. A verification the int8
	// screen settles counts its store page like a read one, so the metric
	// describes the algorithm's footprint, not the bytes this process read
	// (on a resident store every access is a memory read anyway;
	// Index.CacheStats counts the physical work). It is accumulated in a
	// per-query pager.IOStats, so the count is exact and deterministic even
	// when many queries share the index concurrently (no shared counters are
	// reset or read).
	PageAccesses int64
	// Preranked is how many of the verified candidates were verified during
	// the PQ-sketch pre-ranking pass (0 when pre-ranking is off or the
	// index has no sketch). Pre-ranking changes verification ORDER only;
	// every counted candidate is still exactly verified.
	Preranked int
	// NormPruned counts points skipped without computing their inner
	// product because an exact in-memory bound — Cauchy-Schwarz ‖o‖‖q‖, or
	// the PQ-sketch estimate plus its residual bound — proves they cannot
	// enter the top-k (no probability is spent; results are unchanged).
	// Both kinds of point count: disk candidates, whose store page is then
	// never read, and un-compacted update entries (frozen segments and the
	// delta), whose d-dimensional dot product is then never taken.
	NormPruned int
	// GroupsProbed is how many sign-code groups Quick-Probe examined.
	GroupsProbed int
	// Radius is the search range Quick-Probe determined.
	Radius float64
	// ExtendedRadius is the compensation range r' (0 when no extension ran).
	ExtendedRadius float64
	// TerminatedBy records what ended the search: "A" or "B" (the
	// termination condition that held), "exhausted" (the compensation range
	// was consumed whole), or "scan" — the query spent its verification
	// budget (a quarter of the stored points when the store is resident, a
	// twelfth when it is read from disk), or its pre-ranking pass
	// showed that it would (the planned scan), so it finished with one
	// sequential scan of the vector store and the results are the EXACT
	// top-k among live, filter-accepted points.
	TerminatedBy string
	// Degraded is non-nil when a fanned-out sharded search lost shards —
	// per-shard timeouts or errors isolated instead of failing the query —
	// and reports what the merged answer still covers. A single index never
	// sets it, and a fan-out that heard from every shard leaves it nil, so
	// the field is also the "was this answer complete?" predicate.
	Degraded *DegradedStats
}

// DegradedStats reports a degraded fan-out: which shards answered a
// sharded search and what guarantee the merged result still carries. The
// (c, p) accounting is in DESIGN.md, "Failure domains & degradation": the
// answer is c-approximate against the live points of the answered shards
// with probability at least AchievedP; points owned by the failed shards
// are simply not covered — the guarantee degrades in coverage, not in
// confidence.
type DegradedStats struct {
	// ShardsTotal is the fan-out width K.
	ShardsTotal int `json:"shards_total"`
	// ShardsAnswered is how many shards contributed to the merge (empty
	// shards count: they answered "no live points").
	ShardsAnswered int `json:"shards_answered"`
	// FailedShards lists the shards that timed out or errored, ascending.
	FailedShards []int `json:"failed_shards"`
	// AchievedP is the union-bound guarantee probability over the answered
	// shards' points: every shard ran at p' = 1−(1−p)/K, so A answered
	// shards jointly fail with probability at most A·(1−p)/K and
	// AchievedP = 1 − A·(1−p)/K ≥ p.
	AchievedP float64 `json:"achieved_p"`
}

// Index is a built ProMIPS index. It is safe for concurrent use: searches
// take the index lock shared (and account their I/O in a private
// pager.IOStats), while Insert and Delete take it exclusive, so readers
// never observe a half-applied update. The disk-resident structures are
// immutable after Build, and the pagers underneath handle their own
// concurrency.
type Index struct {
	opts Options
	n, d int
	m    int

	proj  *randproj.Projector
	idist *idistance.Index
	orig  *store.Store

	// sketch holds in-memory PQ codes for every base-index point; searches
	// use its estimated inner products to decide verification ORDER only
	// (every result stays exactly verified), so a nil sketch — an index
	// saved before sketches existed — just disables pre-ranking.
	//
	// The sketch's rows and norm2Sq are in LAYOUT order (idist.Layout()),
	// the order the candidate loops walk them in, indexed by
	// idistance.Candidate.Pos; Save writes them by id, as they always were
	// persisted, and Build and Open permute them once.
	sketch *pq.Sketch

	norm2Sq []float64 // per layout position, ‖o‖²
	groups  []group

	// mu guards the mutable query-visible state: the delta and segment
	// slices, the tombstone set, maxNorm2Sq, the closed flag and — since
	// Compact swaps generations in place — every disk-backed component
	// above. Searches DO NOT hold it for their run: they capture a
	// snapshot under a brief shared acquisition (see segment.go) and run
	// lock-free against it, with ref keeping the generation's files open.
	// Insert/Delete, Close and Compact's swap phase hold it exclusive.
	mu         sync.RWMutex
	closed     bool
	maxNorm2Sq float64 // ‖oM‖² (monotone: never lowered by deletes)

	// ref is the current generation's refcounted file handles (idist +
	// orig) and the int8 copy of the store verify screens candidates with
	// (ref.screen, screen.go: derived at Build and Open whatever the pool
	// size, never persisted). The Index owns the initial reference;
	// snapshots take one each; retiring the generation (Compact swap,
	// Close) releases the Index's — the files close and the rows are
	// freed when the last snapshot drains.
	ref *genRef

	// Update state (see update.go and segment.go): the mutable delta,
	// frozen immutable segments, and the copy-on-write tombstone set
	// (never nil).
	delta         []deltaEntry
	segs          []*segment
	frozenEntries int // total entries across segs
	tombs         *tombSet
	segLimit      int // resolved freeze threshold

	// freezes counts delta freezes over the index's lifetime (UpdateStats).
	freezes atomic.Int64

	// journal is the write-ahead update log (wal.log in the index
	// directory): every acknowledged Insert/Delete appends a record before
	// the in-memory state changes, Open replays it on top of the persisted
	// delta, and Save truncates it once the delta is durable. Never nil on
	// an open index. Guarded by mu like the delta it shadows (appends under
	// the exclusive lock, truncation under Save's shared lock — the two
	// cannot interleave).
	journal *wal.Journal

	// recovery describes what Open's journal replay did.
	recovery RecoveryStats
}

// RecoveryStats reports what the journal replay at Open recovered.
type RecoveryStats struct {
	// Replayed is the number of journal records applied on top of the
	// persisted delta — updates that were acknowledged but not yet saved
	// when the previous process stopped.
	Replayed int
	// Skipped is the number of records already covered by the persisted
	// metadata (a crash between the metadata fsync and the journal
	// truncation leaves the journal one Save behind; replay is idempotent).
	Skipped int
	// TruncatedBytes is the size of the torn journal tail that was cleanly
	// cut (a record half-written at crash time, never acknowledged).
	TruncatedBytes int64
}

// buildGrain is how many points one per-point pool task of Build covers
// (about a millisecond of projection and norms at d = 300).
const buildGrain = 1024

// Build constructs an index over data in dir (page files are created
// there). Point i keeps id uint32(i).
//
// The work runs on runtime.GOMAXPROCS(0) workers (internal/par) and writes
// the same bytes at any worker count: per-point tasks fill their own slots,
// reductions across points are done after the join in index order, and the
// two independent halves of the index — the in-memory PQ sketch, and the
// iDistance index with the vector store laid out in its order — are built
// side by side from inputs neither modifies. DESIGN.md, "Build pipeline",
// has the stage graph.
//
// ctx is tested between pool tasks and between stages; once it is done Build
// closes the page files it created and returns ctx.Err(). Files already
// written stay in dir, as after any other failed Build.
func Build(ctx context.Context, data [][]float32, dir string, opts Options) (*Index, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("core: %w: no points to build over", errs.ErrEmptyIndex)
	}
	d := len(data[0])
	for i, p := range data {
		if len(p) != d {
			return nil, fmt.Errorf("core: %w: point %d has dim %d, want %d", errs.ErrDimMismatch, i, len(p), d)
		}
	}
	m := opts.M
	if m == 0 {
		m = randproj.OptimizedM(n)
	}
	if m > randproj.MaxM {
		return nil, fmt.Errorf("core: m=%d exceeds %d", m, randproj.MaxM)
	}

	// Stage 1, per point on the pool: 2-stable projections, ‖o‖² for
	// Condition A, and the 1-norms and sign codes the Quick-Probe groups are
	// formed from (needed only here).
	proj := randproj.New(d, m, opts.Seed)
	ix := &Index{opts: opts, n: n, d: d, m: m, proj: proj, norm2Sq: make([]float64, n)}
	projected := make([][]float32, n)
	norm1 := make([]float64, n)
	codes := make([]uint32, n)
	err := par.Range(ctx, n, buildGrain, func(lo, hi int) {
		copy(projected[lo:hi], proj.ProjectAll(data[lo:hi]))
		for i := lo; i < hi; i++ {
			ix.norm2Sq[i] = vec.Norm2Sq(data[i])
			norm1[i] = vec.Norm1(data[i])
			codes[i] = randproj.Code(projected[i])
		}
	})
	if err != nil {
		return nil, err
	}
	// The reductions over points, in index order: the finite-vector rule
	// (read off the norms), ‖oM‖², and each sign-code group's smallest 1-norm
	// (the first point wins a tie).
	byCode := make(map[uint32]*groupMeta)
	for i, code := range codes {
		if !finite(ix.norm2Sq[i]) {
			return nil, fmt.Errorf("core: point %d: %w", i, errNonFinite)
		}
		if ix.norm2Sq[i] > ix.maxNorm2Sq {
			ix.maxNorm2Sq = ix.norm2Sq[i]
		}
		if g, ok := byCode[code]; !ok {
			byCode[code] = &groupMeta{Code: code, MinNorm1: norm1[i], MinID: uint32(i)}
		} else if norm1[i] < g.MinNorm1 {
			g.MinNorm1, g.MinID = norm1[i], uint32(i)
		}
	}
	groups := make([]groupMeta, 0, len(byCode))
	for _, g := range byCode {
		groups = append(groups, *g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Code < groups[j].Code })

	// Stage 2, two halves side by side. The PQ sketch — codes over the
	// original vectors, kept in memory to pre-rank candidate verification
	// (16 bytes per point) — is more than half of a build and shares only
	// data with the disk half, so it runs on a goroutine of its own while
	// this one builds the disk half. It is joined before Build returns,
	// whichever half fails.
	var skErr error
	sketchDone := make(chan struct{})
	go func() {
		defer close(sketchDone)
		ix.sketch, skErr = pq.BuildSketch(ctx, data, pq.SketchConfig{Seed: opts.Seed})
	}()
	idx, st, rows, err := buildDisk(ctx, data, projected, dir, opts)
	<-sketchDone
	if err != nil {
		return nil, err
	}
	ix.idist, ix.orig = idx, st
	ix.ref = newGenRef(idx, st) // releasing it closes the disk half
	ix.ref.screen = rows        // and frees the rows
	if skErr != nil {
		ix.ref.release()
		return nil, skErr
	}
	// The candidate loops read ‖o‖², the sketch rows and the screen's rows by
	// layout position.
	vec.PermuteRows(ix.norm2Sq, 1, idx.Layout())
	ix.sketch.Permute(idx.Layout())
	ix.groups = locateGroups(groups, idx.Layout())

	// Stage 3: a fresh update journal. Build may target a directory that
	// held an older index, so any stale wal.log is truncated, not replayed.
	j, err := wal.Create(opts.fsys(), filepath.Join(dir, "wal.log"))
	if err != nil {
		ix.ref.release()
		return nil, fmt.Errorf("core: %w", err)
	}
	ix.journal = j
	ix.segLimit = opts.segmentEntries()
	ix.tombs = &tombSet{}
	return ix, nil
}

// buildDisk writes the disk half of an index: the iDistance index over the
// projected points, then the original vectors in its sub-partition order so
// that verification reads are sequential, and returns the int8 screen rows
// writeStore derived on the way. On failure, cancellation included, it
// closes the page files it created.
func buildDisk(ctx context.Context, data, projected [][]float32, dir string, opts Options) (*idistance.Index, *store.Store, *screenRows, error) {
	idx, err := idistance.Build(ctx, projected, dir, idistance.Config{
		Kp: opts.Kp, Nkey: opts.Nkey, Ksp: opts.Ksp, Epsilon: opts.Epsilon,
		Seed: opts.Seed, PageSize: opts.PageSize, PoolSize: opts.PoolSize,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	st, rows, err := writeStore(ctx, data, idx.Layout(), dir, opts)
	if err != nil {
		idx.Close()
		return nil, nil, nil, err
	}
	return idx, st, rows, nil
}

// writeStore writes data to dir's vector store in layout order, and
// quantizes each vector into the screen rows while it is in cache: the walk
// in layout order reads the points in an order unrelated to where they lie
// in memory, and a second such walk on the worker pool cost more CPU than
// quantizing here does.
func writeStore(ctx context.Context, data [][]float32, layout []uint32, dir string, opts Options) (*store.Store, *screenRows, error) {
	w, err := store.Create(dir+"/orig.data", len(data[0]), len(data), pager.Options{PageSize: opts.PageSize, PoolSize: opts.PoolSize})
	if err != nil {
		return nil, nil, err
	}
	rows, err := newScreenRows(len(layout), len(data[0]))
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	fail := func(err error) (*store.Store, *screenRows, error) {
		w.Close()
		rows.free()
		return nil, nil, err
	}
	for pos, id := range layout {
		if pos%buildGrain == 0 {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
		}
		if err := w.Append(data[id]); err != nil {
			return fail(err)
		}
		rows.set(pos, data[id])
	}
	st, err := w.Finalize()
	if err != nil {
		return fail(err)
	}
	return st, rows, nil
}

// Close releases the index's page files. Further operations return
// ErrClosed; a second Close is a no-op. Close waits for in-flight
// searches — snapshots pinning the current generation — to drain, so the
// page files are really closed when it returns (the semantics the old
// exclusive-lock Close had).
func (ix *Index) Close() error {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return nil
	}
	ix.closed = true
	ref, j := ix.ref, ix.journal
	ix.mu.Unlock()
	// Release the Index's own reference and wait for in-flight snapshots.
	ref.release()
	<-ref.done
	err := ref.closeErr
	// Close never truncates: the journal must survive Close so an unsaved
	// index still replays at Open.
	if err2 := j.Close(); err == nil {
		err = err2
	}
	return err
}

// Len returns the number of indexed points (compaction folds the delta in,
// so the count can change over an index's lifetime).
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.n
}

// Dim returns the original dimensionality.
func (ix *Index) Dim() int { return ix.d }

// JournalLen returns the number of records in the write-ahead journal —
// literally what a crash-recovery Open would decode. Save and Compact empty
// it; a journal left one Save behind by a crash between the metadata fsync
// and the truncation still counts the records that replay will skip.
func (ix *Index) JournalLen() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.journal.Len()
}

// JournalPoisoned reports whether the update journal is refusing
// acknowledgements (ErrJournalPoisoned) until a Save heals it.
func (ix *Index) JournalPoisoned() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.journal.Poisoned()
}

// Recovery reports what the journal replay at Open recovered. Zero for a
// freshly built index.
func (ix *Index) Recovery() RecoveryStats { return ix.recovery }

// M returns the projected dimensionality in use.
func (ix *Index) M() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.m
}

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }

// SizeBreakdown itemizes the index's storage footprint in bytes.
type SizeBreakdown struct {
	RingDir    int64 // the encoded ring directory (the index proper)
	Projected  int64 // projected points on disk
	QuickProbe int64 // per sign-code group: code, smallest 1-norm, its id
	Norms      int64 // per-point ‖o‖² kept for Condition A
	Sketch     int64 // in-memory PQ codes + codebooks for pre-ranking
}

// Total returns the summed index size. Following the paper's Fig. 4(a),
// the original data file is not part of the index.
func (s SizeBreakdown) Total() int64 {
	return s.RingDir + s.Projected + s.QuickProbe + s.Norms + s.Sketch
}

// Sizes reports the on-disk/in-memory footprint of each index component.
func (ix *Index) Sizes() SizeBreakdown {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var sketch int64
	if ix.sketch != nil {
		sketch = ix.sketch.Bytes()
	}
	return SizeBreakdown{
		RingDir:    ix.idist.RingDirBytes(),
		Projected:  ix.idist.DataSizeBytes(),
		QuickProbe: int64(len(ix.groups)) * 16,
		Norms:      int64(ix.n) * 8,
		Sketch:     sketch,
	}
}

// CacheStats aggregates the page-read counters of every pager the index
// reads through (the iDistance data file and the original-vector store) —
// the I/O engine's whole-run diagnostics. Unlike SearchStats, these are
// shared counters: concurrent queries all add to them, and Sub of two
// snapshots brackets a measured interval.
func (ix *Index) CacheStats() pager.Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.closed {
		return pager.Stats{}
	}
	var total pager.Stats
	for _, pg := range append(ix.idist.Pagers(), ix.orig.Pager()) {
		total = total.Add(pg.Stats())
	}
	return total
}

// errNonFinite refuses a vector with a NaN or infinite component. Build,
// Insert and every query entry point apply the rule: a NaN query would
// reach iDistance's float→int ring conversion (undefined for NaN), a NaN
// point would make every query that reaches it offer NaN, and the exact
// prunes bound inner products by norms, which a non-finite component leaves
// meaningless.
var errNonFinite = errors.New("a component is NaN or infinite; vectors must be finite")

// finite reports whether the vector whose squared norm (vec.Norm2Sq) is
// normSq has only finite components: a NaN component makes the norm NaN and
// an infinite one +Inf, while float32 components squared and summed in
// float64 cannot overflow, so one norm is the whole test — and Build and
// Insert compute it anyway.
func finite(normSq float64) bool { return normSq <= math.MaxFloat64 }

// conditionBDenominator is ‖oM‖² + ‖q‖² − 2⟨omax,q⟩/c, the denominator of
// Formula 2. Non-positive values are Condition A (Formula 1). The
// approximation ratio c is query-local: per-query overrides recompute the
// conditions without touching the index. Defined on the snapshot: a query
// must test against the one consistent ‖oM‖² its view was captured with.
func (sn *snapshot) conditionBDenominator(c, normQSq, ipK float64) float64 {
	return sn.maxNorm2Sq + normQSq - 2*ipK/c
}
