package core

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"promips/internal/errs"
	"promips/internal/idistance"
	"promips/internal/pq"
	"promips/internal/randproj"
	"promips/internal/store"
	"promips/internal/vec"
)

// In-memory update pipeline. The mutable delta used to grow without bound
// between compactions, and every Insert serialized behind one exclusive
// lock held across its norm/clone work while searches held the same lock
// shared for their whole run. This file restructures that:
//
//   - At SegmentEntries inserts the mutable delta FREEZES into an
//     immutable segment — a pure pointer move under the already-held
//     exclusive lock, no I/O. Frozen segments stay searchable exactly like
//     the delta (their entries are scanned with exact inner products).
//     Freezing is a query-time structure only: nothing about a segment is
//     written anywhere. On disk the wal.log is the one redo log and
//     promips.meta the one checkpoint (persist.go).
//   - Searches run against a SNAPSHOT captured under a brief RLock —
//     generation handles (refcounted so Compact/Close cannot close pages
//     under a running query), the delta and segment slices, and a
//     copy-on-write tombstone view — and then never touch the lock again,
//     so updates no longer block in-flight searches and vice versa.

// segment is one frozen slice of the update delta, never mutated after
// publication.
type segment struct {
	entries []deltaEntry // frozen delta, ids dense and ascending
}

// tombSet is the copy-on-write tombstone set. frozen is immutable once
// published (readers access it lock-free from snapshots); recent is
// append-only under the exclusive lock, and readers only ever see a slice
// header captured under the read lock — appends land beyond that header's
// length or in a reallocated backing array, never in view. When recent
// outgrows tombFoldLimit the whole set folds into a fresh frozen map and
// the Index swaps the pointer, so membership stays O(1) amortized while a
// snapshot's view costs two pointer copies.
type tombSet struct {
	frozen map[uint32]bool
	recent []uint32
}

// tombFoldLimit bounds the linear-scanned recent tail.
const tombFoldLimit = 64

// add records id as deleted and returns the set the Index should publish
// (the receiver, or a folded replacement). Caller holds the exclusive
// lock and has checked !has(id).
func (t *tombSet) add(id uint32) *tombSet {
	if len(t.recent) >= tombFoldLimit {
		nf := make(map[uint32]bool, len(t.frozen)+len(t.recent)+1)
		for k := range t.frozen {
			nf[k] = true
		}
		for _, k := range t.recent {
			nf[k] = true
		}
		nf[id] = true
		return &tombSet{frozen: nf}
	}
	t.recent = append(t.recent, id)
	return t
}

// has reports membership against the full current set. Caller holds the
// index lock (shared or exclusive); lock-free readers use their
// snapshot's captured view instead.
func (t *tombSet) has(id uint32) bool {
	return t.frozen[id] || slices.Contains(t.recent, id)
}

// count is the number of tombstones (frozen and recent are disjoint by
// construction — add is only called on ids not yet present).
func (t *tombSet) count() int { return len(t.frozen) + len(t.recent) }

// each calls fn for every tombstoned id. Caller holds the index lock.
func (t *tombSet) each(fn func(id uint32)) {
	for id := range t.frozen {
		fn(id)
	}
	for _, id := range t.recent {
		fn(id)
	}
}

// genRef refcounts one generation's page-file handles and the int8 screen
// rows derived from them. The Index holds the initial reference; every
// snapshot acquires one more. The files close and the rows are freed
// exactly when the count reaches zero — after the Index has retired the
// generation (Compact swap or Close) AND the last in-flight snapshot
// released — so a lock-free search can never read a closed page file or
// unmapped rows, and Close keeps its "blocks until in-flight queries
// finish" semantics by waiting on done.
type genRef struct {
	idist *idistance.Index
	orig  *store.Store
	// screen is the generation's int8 copy of orig (screen.go): set by
	// Build and Open once derived, read by queries through their snapshot
	// only.
	screen   *screenRows
	refs     atomic.Int64
	closeErr error
	done     chan struct{}
}

func newGenRef(idist *idistance.Index, orig *store.Store) *genRef {
	g := &genRef{idist: idist, orig: orig, done: make(chan struct{})}
	g.refs.Store(1)
	return g
}

func (g *genRef) acquire() { g.refs.Add(1) }

// release drops one reference, closing the files and freeing the rows on the
// last one. The initial (Index-owned) reference is released under the
// exclusive lock, and acquire only runs under the read lock on a
// non-retired generation, so the count can never resurrect from zero.
func (g *genRef) release() {
	if g.refs.Add(-1) != 0 {
		return
	}
	err := g.idist.Close()
	if err2 := g.orig.Close(); err == nil {
		err = err2
	}
	if g.screen != nil {
		if err2 := g.screen.free(); err == nil {
			err = err2
		}
	}
	g.closeErr = err
	close(g.done)
}

// snapshot is one consistent, immutable view of the queryable state,
// captured under a brief RLock. Everything a query reads lives here: the
// generation's disk structures (pinned via ref), the per-point arrays,
// the mutable-delta and frozen-segment slices as they stood at capture,
// and the tombstone view (frozen map pointer + recent slice header). A
// query against a snapshot sees exactly the states an RLock-held search
// used to see — the state at acquisition — without excluding writers for
// its duration. release must be called exactly once (searches defer it).
type snapshot struct {
	ref    *genRef
	proj   *randproj.Projector
	idist  *idistance.Index
	orig   *store.Store
	sketch *pq.Sketch
	screen *screenRows

	norm2Sq []float64
	groups  []group

	n, d, m    int
	maxNorm2Sq float64
	optC, optP float64

	delta      []deltaEntry
	segs       []*segment
	frozenLen  int // total entries across segs
	tombFrozen map[uint32]bool
	tombRecent []uint32

	// noMemPrune makes scanMem evaluate every entry. Never set outside
	// tests: it is the reference side of their prune-on/prune-off
	// differential.
	noMemPrune bool
	// noScreen makes verify read every verified candidate from the store.
	// Never set outside tests: it is the reference side of their
	// screen-on/screen-off differential.
	noScreen bool
}

// snapshot captures the current queryable state under a short read lock
// and pins the generation's files. ErrClosed after Close.
func (ix *Index) snapshot() (*snapshot, error) {
	ix.mu.RLock()
	if ix.closed {
		ix.mu.RUnlock()
		return nil, errs.ErrClosed
	}
	sn := &snapshot{
		ref: ix.ref, proj: ix.proj, idist: ix.idist, orig: ix.orig, sketch: ix.sketch, screen: ix.ref.screen,
		norm2Sq: ix.norm2Sq, groups: ix.groups,
		n: ix.n, d: ix.d, m: ix.m,
		maxNorm2Sq: ix.maxNorm2Sq,
		optC:       ix.opts.C, optP: ix.opts.P,
		delta: ix.delta, segs: ix.segs, frozenLen: ix.frozenEntries,
		tombFrozen: ix.tombs.frozen, tombRecent: ix.tombs.recent,
	}
	sn.ref.acquire()
	ix.mu.RUnlock()
	return sn, nil
}

func (sn *snapshot) release() { sn.ref.release() }

// live reports whether id is untombstoned in this view.
func (sn *snapshot) live(id uint32) bool {
	return !sn.tombFrozen[id] && !slices.Contains(sn.tombRecent, id)
}

// liveCount is the number of live points in this view.
func (sn *snapshot) liveCount() int {
	return sn.n + sn.frozenLen + len(sn.delta) - len(sn.tombFrozen) - len(sn.tombRecent)
}

// memLUT builds the query's sketch lookup table into *buf (reused when
// large enough) when scanMem can prune with it: the snapshot has a sketch
// and un-compacted entries to scan. nil otherwise — scanMem then evaluates
// every entry, the only behavior an index saved before sketches existed has.
func (sn *snapshot) memLUT(q []float32, buf *[]float64) []float64 {
	if sn.sketch == nil || sn.noMemPrune || sn.frozenLen+len(sn.delta) == 0 {
		return nil
	}
	*buf = sn.sketch.NewLUT(q, *buf)
	return *buf
}

// scanMem offers the live in-memory points (frozen segments, then the
// mutable delta, in insertion order) accepted by the query's filter to the
// accumulator — exact evaluation, no disk I/O. params may be nil for an
// unfiltered scan; normQSq is ‖q‖².
//
// With lut = memLUT(q) non-nil an entry is skipped — and counted in pruned —
// when one of verifyCand's two exact bounds proves ⟨o,q⟩ ≤ the current k-th
// inner product: Cauchy-Schwarz on the stored ‖o‖², or the sketch bound
// over the codes the entry was encoded with (snapshot() captures sketch,
// delta and segments under one lock acquisition, so they belong to the same
// generation — see deltaEntry). topK.offer ignores such an entry anyway, so
// the accumulator after the scan is bit-identical to evaluating everything.
// Survivors are scored and offered eight at a time (memBatch), so the k-th
// inner product a prune reads may lag up to seven offers behind, which only
// makes the test more conservative.
//
// ctx is checked at the start of every segment and every 256 entries within
// one, so a backlog scan is a cancellation point like the disk scans.
func (sn *snapshot) scanMem(ctx context.Context, q []float32, normQSq float64, lut []float64, top *topK, params *SearchParams) (pruned int, err error) {
	b := memBatch{sn: sn, q: q, lut: lut, normQSq: normQSq, normQ: math.Sqrt(normQSq), top: top}
	if lut != nil {
		b.codeLen = sn.sketch.Subspaces()
	}
	for si := 0; si <= len(sn.segs); si++ { // the segments, oldest first, then the delta
		entries := sn.delta
		if si < len(sn.segs) {
			entries = sn.segs[si].entries
		}
		for i := range entries {
			if i&255 == 0 {
				if err := ctx.Err(); err != nil {
					return pruned, err
				}
			}
			e := &entries[i]
			if !sn.live(e.id) || (params != nil && !params.accepts(e.id)) {
				continue
			}
			if b.prunable(e) {
				pruned++
				continue
			}
			b.rows[b.nr], b.ids[b.nr] = e.v, e.id
			if b.nr++; b.nr == len(b.rows) {
				b.score()
			}
		}
	}
	b.score()
	return pruned, nil
}

// memBatch is scanMem's survivor queue. Rows are scored eight at a time
// (vec.Dot8) and offered together, in scan order, before the next entry is
// tested.
type memBatch struct {
	sn             *snapshot
	q              []float32
	lut            []float64 // nil: nothing is prunable
	normQSq, normQ float64
	codeLen        int
	top            *topK

	rows [8][]float32 // survivors awaiting their inner products
	ids  [8]uint32
	nr   int
}

// prunable applies the two exact bounds to e against the current k-th.
func (b *memBatch) prunable(e *deltaEntry) bool {
	if b.lut == nil {
		return false
	}
	ipK, full := b.top.kth()
	return full && ((ipK >= 0 && e.ip2*b.normQSq <= ipK*ipK) ||
		b.sn.sketch.BoundCodes(e.codes[:b.codeLen], e.resid, b.lut, b.normQ) <= ipK)
}

// score computes the queued rows' inner products and offers them in order.
func (b *memBatch) score() {
	var ips [8]float64
	if b.nr == len(b.rows) {
		vec.Dot8(&b.rows, b.q, &ips)
	} else {
		for j, row := range b.rows[:b.nr] {
			ips[j] = vec.Dot(row, b.q)
		}
	}
	for j, id := range b.ids[:b.nr] {
		b.top.offer(id, ips[j])
	}
	b.nr = 0
}

// maybeFreezeLocked freezes the mutable delta into a segment when it has
// reached the configured size. Caller holds ix.mu exclusive.
func (ix *Index) maybeFreezeLocked() {
	if len(ix.delta) >= ix.segLimit {
		ix.freezeLocked()
	}
}

// freezeLocked turns the whole mutable delta into an immutable segment: a
// pointer move, no I/O, no copying. Caller holds ix.mu exclusive and
// len(ix.delta) > 0.
func (ix *Index) freezeLocked() {
	ix.segs = append(ix.segs, &segment{entries: ix.delta})
	ix.frozenEntries += len(ix.delta)
	ix.delta = nil
	ix.freezes.Add(1)
}

// UpdateStats describes the update pipeline's state and lifetime
// counters.
type UpdateStats struct {
	// DeltaEntries is the size of the mutable delta (inserts since the
	// last freeze).
	DeltaEntries int `json:"delta_entries"`
	// Segments is the number of frozen in-memory segments awaiting
	// compaction — the count automatic compaction triggers on.
	Segments int `json:"segments"`
	// SegmentEntries is the total entry count across those segments.
	SegmentEntries int `json:"segment_entries"`
	// Tombstones is the live tombstone count.
	Tombstones int `json:"tombstones"`
	// Freezes counts delta freezes over the index's lifetime.
	Freezes int64 `json:"freezes"`
	// Flushes is always zero.
	//
	// Deprecated: segments are no longer written to files of their own (the
	// journal already holds every un-compacted update). The field stays only
	// because e2ebench/run.go reads it for its segments.flushes row, and
	// goes when that row does (ROADMAP item 4(a)).
	Flushes int64 `json:"flushes"`
	// FlushFailures is always zero.
	//
	// Deprecated: see Flushes; read by e2ebench's segments.flush_failures
	// row.
	FlushFailures int64 `json:"flush_failures"`
}

// UpdateStats reports the update pipeline's current state.
func (ix *Index) UpdateStats() UpdateStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return UpdateStats{
		DeltaEntries:   len(ix.delta),
		Segments:       len(ix.segs),
		SegmentEntries: ix.frozenEntries,
		Tombstones:     ix.tombs.count(),
		Freezes:        ix.freezes.Load(),
	}
}
