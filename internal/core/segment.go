package core

import (
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
//     the delta (scanMem answers as if every entry's exact inner product
//     were offered).
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
	rows    []int8       // entry i's int8 row at rows[i·stride:(i+1)·stride]
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
	screen *screenRows
	// backlogRows are the mappings the generation's update backlog keeps
	// its int8 rows in (appendDeltaLocked), freed with screen.
	backlogRows [][]int8
	refs        atomic.Int64
	closeErr    error
	done        chan struct{}
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
	for _, m := range g.backlogRows {
		if err2 := unmapCodes(m); err == nil {
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
	deltaRows  []int8
	segs       []*segment
	frozenLen  int // total entries across segs
	tombFrozen map[uint32]bool
	tombRecent []uint32

	// noMemPrune makes scanMem score every entry. Never set outside tests:
	// it is the reference side of their prune-on/prune-off differential.
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
		delta: ix.delta, deltaRows: ix.deltaRows, segs: ix.segs, frozenLen: ix.frozenEntries,
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

// scanMem offers the live in-memory points accepted by the query's filter
// (frozen segments, then the mutable delta, in insertion order) to the
// accumulator through the screened scan (screen.go: boundPass, then
// settleRows): the result is that of offering every such entry's exact
// inner product, vec.Dot, in that order. It returns how many of them it
// never scored.
// There is no disk I/O. ctx is checked at the start of every segment and
// every 256 entries within one, so a backlog scan is a cancellation point
// like the disk scans.
func (s *query) scanMem() (pruned int, err error) {
	sn, sc := s.sn, s.sc
	sc.rows = slices.Grow(sc.rows[:0], sn.frozenLen+len(sn.delta))
	// The segments, oldest first, then the delta; place is the first
	// entry's place in the backlog.
	place := 0
	for si := 0; si <= len(sn.segs); si++ {
		entries, rows := sn.delta, sn.deltaRows
		if si < len(sn.segs) {
			entries, rows = sn.segs[si].entries, sn.segs[si].rows
		}
		if err := s.boundPass(place, len(entries), rows, !sn.noMemPrune, func(i int) (uint32, screenScale, float64) {
			e := &entries[i]
			return e.id, e.screenScale, e.ip2
		}); err != nil {
			return 0, err
		}
		place += len(entries)
	}
	return s.settleRows(
		func(g uint32) uint32 { return sn.entry(g).id },
		func(g uint32) (float64, error) { return vec.Dot(sn.entry(g).v, s.q), nil })
}

// entry returns the entry at place g of the backlog: the segments' entries,
// oldest first, then the delta's.
func (sn *snapshot) entry(g uint32) *deltaEntry {
	i := int(g)
	for _, seg := range sn.segs {
		if i < len(seg.entries) {
			return &seg.entries[i]
		}
		i -= len(seg.entries)
	}
	return &sn.delta[i]
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
	ix.segs = append(ix.segs, &segment{entries: ix.delta, rows: ix.deltaRows})
	ix.frozenEntries += len(ix.delta)
	ix.delta, ix.deltaRows = nil, nil
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
