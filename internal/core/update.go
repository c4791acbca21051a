package core

import (
	"context"
	"fmt"
	"os"

	"promips/internal/errs"
	"promips/internal/vec"
	"promips/internal/wal"
)

// Dynamic updates. The paper motivates the lightweight index with
// frequently-updated workloads ("in commonly used mobile devices or IoT
// devices, a huge amount of data will be frequently inserted or deleted in
// a short time", §I): a single B+-tree is cheap to maintain where hundreds
// of hash tables are not. This file adds the update path:
//
//   - Insert appends to an in-memory delta that freezes into immutable,
//     searchable segments at Options.SegmentEntries inserts (segment.go);
//     queries scan segments and delta exactly, so the probabilistic
//     machinery is untouched — exact evaluation of recent points can only
//     improve the returned inner products.
//   - Delete tombstones a point. Tombstoned points are filtered from
//     candidate evaluation. If the deleted point was the max-norm point
//     oM, the stale (larger) ‖oM‖² keeps Conditions A and B conservative,
//     so the guarantee still holds.
//   - Compact folds segments, delta and tombstones into a fresh on-disk
//     generation and swaps it into this Index in place; searches keep
//     running against the old generation during the rebuild and see the
//     new one atomically.

// deltaEntry is one inserted point not yet folded into the disk index. Its
// int8 row (vec.QuantizeInt8 at vec.Int8RowLen codes), which scanMem
// screens it with, lies at the entry's place in the rows of the segment or
// delta holding it; the entry keeps the row's scale and residual bound.
// The row is derived from v alone, never persisted: newDeltaEntry builds
// it wherever an entry is built (Insert, Open, journal replay, Compact).
type deltaEntry struct {
	id uint32
	screenScale
	v   []float32
	ip2 float64 // ‖v‖²
}

// newDeltaEntry builds the entry for point id with vector v (which the
// entry takes ownership of) and its int8 row.
func newDeltaEntry(id uint32, v []float32) (deltaEntry, []int8) {
	e := deltaEntry{id: id, v: v, ip2: vec.Norm2Sq(v)}
	row := make([]int8, vec.Int8RowLen(len(v)))
	e.scale, e.resid = vec.QuantizeInt8(row, v)
	return e, row
}

// appendDeltaLocked publishes e, with its int8 row, in the mutable delta.
// Caller holds ix.mu exclusive (or owns ix).
//
// The rows live off the Go heap in mappings (mapCodes) of SegmentEntries
// rows, or twice the delta when a replay outgrows that, which the
// generation frees with its screen rows; a full one stays mapped for the
// snapshots still reading it. Without a mapping the rows grow on the heap.
func (ix *Index) appendDeltaLocked(e deltaEntry, row []int8) {
	if len(ix.deltaRows)+len(row) > cap(ix.deltaRows) {
		if m, err := mapCodes(max(ix.segLimit, 2*len(ix.delta)) * len(row)); err == nil {
			ix.ref.backlogRows = append(ix.ref.backlogRows, m)
			ix.deltaRows = append(m[:0], ix.deltaRows...)
		}
	}
	ix.delta = append(ix.delta, e)
	ix.deltaRows = append(ix.deltaRows, row...)
	if e.ip2 > ix.maxNorm2Sq {
		// A new max-norm point tightens nothing but must be respected:
		// Condition A's proof requires ‖oM‖ to bound every live norm.
		ix.maxNorm2Sq = e.ip2
	}
}

// Insert adds a point and returns its id. The point lives in the delta
// region (and then a frozen segment) until compaction. The per-point prep
// — cloning the vector, computing its norm and its int8 row — runs BEFORE
// the exclusive lock, so concurrent updaters overlap on it; the lock is held
// only to SEQUENCE the update — write the journal record and apply the
// in-memory change — and released before waiting for durability, so it
// interleaves correctly with concurrent searches (each snapshot sees the
// state before or after the insert, never a partial one) and an updater's
// fsync never stalls readers. The fsyncs are group-committed: concurrent
// inserts that overlap one fsync are all covered by the next, so N racing
// updaters pay ~2 fsyncs between them instead of N (see
// wal.Journal.WaitDurable).
//
// Durability: the record is journaled BEFORE the in-memory state changes,
// and the insert is acknowledged only once an fsync covers it. A successful
// return therefore means the insert survives a crash. On a journal WRITE
// failure neither memory nor disk took the update (the journal heals in
// place). On a group-FSYNC failure the insert is applied in memory but NOT
// acknowledged — it behaves like an un-acked update: a
// crash may or may not recover it, a later Save persists it — and the
// journal is poisoned (ErrJournalPoisoned) until a successful Save
// re-establishes durability through the metadata path. Inserting into a
// closed index returns ErrClosed.
func (ix *Index) Insert(v []float32) (uint32, error) {
	if len(v) != ix.d {
		return 0, fmt.Errorf("core: %w: insert dim %d, want %d", errs.ErrDimMismatch, len(v), ix.d)
	}
	// Per-point prep outside the critical section: the clone is private
	// from here on, so its norm and int8 row can be computed from it
	// lock-free too, and neither depends on the generation a Compact may
	// swap in before the lock is taken.
	e, row := newDeltaEntry(0, vec.Clone(v))
	if !finite(e.ip2) {
		return 0, fmt.Errorf("core: insert: %w", errNonFinite)
	}
	ix.mu.Lock()
	id, lsn, err := ix.insertPreparedLocked(e, row, true)
	j := ix.journal
	ix.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// The durability wait runs OUTSIDE the index lock: searches proceed
	// against the already-applied update while the disk catches up, and
	// every concurrent updater parked here is acknowledged by the same
	// group fsync.
	if err := j.WaitDurable(lsn); err != nil {
		return 0, fmt.Errorf("core: insert: %w", err)
	}
	return id, nil
}

// insertPreparedLocked is Insert's sequencing half; the caller holds
// ix.mu exclusive and hands over e and its int8 row, with e's id still
// unassigned. It assigns the id, writes the journal record, applies the
// in-memory change, freezes the delta if it reached the segment threshold,
// and returns the record's LSN — the caller waits for durability on it
// AFTER releasing the lock (lsn 0 means nothing to wait for:
// journaled=false).
func (ix *Index) insertPreparedLocked(e deltaEntry, row []int8, journaled bool) (uint32, int64, error) {
	if ix.closed {
		return 0, 0, errs.ErrClosed
	}
	id := uint32(ix.n + ix.frozenEntries + len(ix.delta))
	e.id = id
	var lsn int64
	if journaled {
		// Write-ahead: if the record cannot be WRITTEN, the insert is not
		// acknowledged and memory is untouched. The journal heals (or
		// poisons itself) so the failed bytes can never precede a later
		// record; the id is not burned — the next insert reuses it, and by
		// then either the journal healed (the failed record is gone) or it
		// is poisoned (no later record can follow the garbage).
		l, err := ix.journal.Append(wal.Record{Type: wal.TypeInsert, ID: id, Vec: e.v})
		if err != nil {
			return 0, 0, fmt.Errorf("core: insert: %w", err)
		}
		lsn = l
	}
	ix.appendDeltaLocked(e, row)
	ix.maybeFreezeLocked()
	return id, lsn, nil
}

// Delete tombstones the point with the given id (from the base index, a
// frozen segment or the delta). It reports whether the id was live. Like
// Insert, it takes the index lock exclusive. Deleting from a closed index
// reports false; use DeleteChecked to distinguish "absent" from "closed"
// or a journal failure.
func (ix *Index) Delete(id uint32) bool {
	ok, _ := ix.DeleteChecked(id)
	return ok
}

// DeleteChecked is Delete with a typed error: (false, ErrClosed) on a
// closed index, (false, journal error) when the tombstone could not be
// logged, and (false, nil) when the id was simply absent or already
// deleted. Journaling follows the same write-ahead and group-commit
// discipline as Insert: the record write and the in-memory tombstone are
// sequenced under the exclusive lock, the fsync wait happens after it is
// released, and (true, nil) means the tombstone survives a crash. On a
// journal WRITE failure the delete is NOT applied; on a
// group-FSYNC failure it is applied in memory but NOT acknowledged
// (false, ErrJournalPoisoned-wrapped error) — like an un-acked update, a
// crash may or may not recover it and a later Save persists it.
func (ix *Index) DeleteChecked(id uint32) (bool, error) {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return false, errs.ErrClosed
	}
	if int(id) >= ix.n+ix.frozenEntries+len(ix.delta) || ix.tombs.has(id) {
		ix.mu.Unlock()
		return false, nil
	}
	j := ix.journal
	lsn, err := j.Append(wal.Record{Type: wal.TypeDelete, ID: id})
	if err != nil {
		ix.mu.Unlock()
		return false, fmt.Errorf("core: delete: %w", err)
	}
	ix.tombs = ix.tombs.add(id)
	ix.mu.Unlock()
	if err := j.WaitDurable(lsn); err != nil {
		return false, fmt.Errorf("core: delete: %w", err)
	}
	return true, nil
}

// LiveCount returns the number of live (non-tombstoned) points.
func (ix *Index) LiveCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveCountLocked()
}

func (ix *Index) liveCountLocked() int {
	return ix.n + ix.frozenEntries + len(ix.delta) - ix.tombs.count()
}

// liveLocked reports whether id is untombstoned; caller holds ix.mu.
func (ix *Index) liveLocked(id uint32) bool { return !ix.tombs.has(id) }

// NextID returns the id the next Insert would assign (base points plus
// frozen-segment and delta entries; ids are dense and tombstones never
// free one). Routers — promips/shard's least-next-id shard assignment —
// use it to keep a composed id space dense without reaching into the
// update state.
func (ix *Index) NextID() uint32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return uint32(ix.n + ix.frozenEntries + len(ix.delta))
}

// Compact rebuilds the index into dir — folding the segments and delta in
// and dropping tombstoned points — and swaps the new generation into ix
// in place. Ids are reassigned densely (0..Len-1); remap[newID] gives the
// previous id so callers can relocate external references.
//
// The rebuild runs without the exclusive lock: concurrent searches keep
// answering against the old generation, and updates that land during the
// rebuild are folded in during the brief exclusive swap phase (inserts move
// into the new generation's delta, deletes are re-applied through the id
// remap). The old generation's page files are closed but not removed; the
// caller owns directory hygiene.
//
// persist, when non-nil, runs inside the exclusive section after the fold
// and BEFORE the in-memory swap: it must make the new generation durable
// (save its metadata, flip the caller's generation pointer). Running it
// under the lock is what keeps the write-ahead guarantee across
// compaction — no update can be acknowledged into the new generation's
// journal until the pointer durably names that generation, so a crash at
// any instant recovers a generation together with the journal holding its
// acknowledged updates. persist returns committed=true once the pointer
// flip is visible (even if making it durable then failed): from that
// point the swap must proceed — the on-disk logical state already names
// the new generation — and Compact returns the valid remap alongside the
// error.
//
// Cancellation is honored between the snapshot, build and swap phases and
// inside the build (it runs under ctx; see Build); on ctx expiry the index
// is left untouched and partially written files in dir are the caller's to
// clean up.
//
// Error contract: error with a nil remap means nothing happened — ix is
// untouched, still serving (and journaling into) the old generation, and
// nothing references dir. A nil error (or the committed-corner error
// above, with a non-nil remap) means the new generation is live in ix.
func (ix *Index) Compact(ctx context.Context, dir string, persist func(next *Index) (committed bool, err error)) ([]uint32, error) {
	// Phase 1: snapshot the live set under the shared lock.
	ix.mu.RLock()
	if ix.closed {
		ix.mu.RUnlock()
		return nil, errs.ErrClosed
	}
	// The live stored rows keep their layout order: slot[pos] is the row's
	// index in liveData, or -1 when it is deleted, and one walk of the store
	// fills every slot.
	slot := make([]int32, ix.n)
	oldIDs := make([]uint32, 0, ix.liveCountLocked())
	for pos, id := range ix.idist.Layout() {
		slot[pos] = -1
		if ix.liveLocked(id) {
			slot[pos] = int32(len(oldIDs))
			oldIDs = append(oldIDs, id)
		}
	}
	liveData := make([][]float32, len(oldIDs), ix.liveCountLocked())
	err := ix.orig.ScanRows(ctx, func(first int, rows [][]byte) {
		for i, row := range rows {
			if s := slot[first+i]; s >= 0 {
				liveData[s] = vec.Decode(row, ix.d, nil)
			}
		}
	})
	if err != nil {
		ix.mu.RUnlock()
		return nil, err
	}
	snapEntries := func(entries []deltaEntry) {
		for _, e := range entries {
			if ix.tombs.has(e.id) {
				continue
			}
			liveData = append(liveData, vec.Clone(e.v))
			oldIDs = append(oldIDs, e.id)
		}
	}
	for _, seg := range ix.segs {
		snapEntries(seg.entries)
	}
	snapEntries(ix.delta)
	idMark := uint32(ix.n + ix.frozenEntries + len(ix.delta)) // ids below this existed at snapshot time
	snapDeleted := make(map[uint32]bool, ix.tombs.count())
	ix.tombs.each(func(id uint32) { snapDeleted[id] = true })
	opts := ix.opts
	ix.mu.RUnlock()

	if len(liveData) == 0 {
		return nil, fmt.Errorf("core: compact: %w", errs.ErrEmptyIndex)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: build the next generation. Readers are not blocked.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	next, err := Build(ctx, liveData, dir, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		next.Close()
		return nil, err
	}

	// Phase 3: fold updates that arrived during the rebuild, then swap.
	oldToNew := make(map[uint32]uint32, len(oldIDs))
	for newID, oldID := range oldIDs {
		oldToNew[oldID] = uint32(newID)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		next.Close()
		return nil, errs.ErrClosed
	}
	var foldErr error
	ix.tombs.each(func(id uint32) {
		if foldErr != nil || snapDeleted[id] || id >= idMark {
			return // already folded out, or a during-rebuild insert handled below
		}
		newID := oldToNew[id] // deleted after the snapshot ⇒ live at it ⇒ mapped
		if !next.tombs.has(newID) {
			next.tombs = next.tombs.add(newID)
		}
	})
	remap := oldIDs
	foldEntries := func(entries []deltaEntry) {
		for _, e := range entries {
			if foldErr != nil || e.id < idMark || ix.tombs.has(e.id) {
				continue
			}
			// next is private to this call until the swap below, so its
			// lock is not needed. journaled=false: the folded records were
			// acknowledged in the generation being replaced, which stays
			// the durable one until the handover below commits.
			ne, row := newDeltaEntry(0, vec.Clone(e.v))
			newID, _, err := next.insertPreparedLocked(ne, row, false)
			if err != nil {
				foldErr = err
				return
			}
			if int(newID) != len(remap) {
				foldErr = fmt.Errorf("core: compact: remap misaligned at new id %d", newID)
				return
			}
			remap = append(remap, e.id)
		}
	}
	// During-rebuild inserts may themselves have frozen into segments;
	// segments-then-delta preserves ascending id order.
	for _, seg := range ix.segs {
		foldEntries(seg.entries)
	}
	foldEntries(ix.delta)
	if foldErr != nil {
		next.Close()
		return nil, foldErr
	}

	// Durable handover, still under the exclusive lock: no search observes
	// the new generation and — crucially — no update can be acknowledged
	// into its journal before the generation pointer durably names it.
	if persist != nil {
		committed, err := persist(next)
		if err != nil && !committed {
			next.Close()
			return nil, err
		}
		if err != nil {
			// The pointer flip is visible but its durability is uncertain
			// (a directory fsync failed after the rename). The logical
			// on-disk state names the new generation, so the swap must
			// proceed; surface the error with the valid remap and let the
			// caller's next Save retry the fsync. Until that Save, a crash
			// could still recover the OLD generation — so BOTH journals are
			// poisoned: the old one first (any updater still parked in its
			// WaitDurable is refused rather than acknowledged against a
			// pointer that may not survive a crash), then the new one after
			// the swap, so updates fail loudly instead of acknowledging a
			// durability promise the pointer cannot back yet.
			ix.journal.Poison(fmt.Errorf("generation pointer not durable: %w", err))
			ix.swapLocked(next)
			ix.journal.Poison(fmt.Errorf("generation pointer not durable: %w", err))
			return remap, err
		}
		// Durable handover complete: every record in the OLD journal is
		// covered by the new generation's fsynced metadata (the snapshot
		// and the fold above took all of them in). Seal it so any updater
		// still waiting on its group fsync is acknowledged from the
		// metadata's durability instead of racing the Close in swapLocked.
		ix.journal.SealDurable()
	}

	ix.swapLocked(next)
	return remap, nil
}

// swapLocked installs next's state into ix (caller holds ix.mu exclusive)
// and retires the old generation's handles.
func (ix *Index) swapLocked(next *Index) {
	oldRef, oldJournal := ix.ref, ix.journal
	ix.n, ix.m = next.n, next.m
	ix.proj = next.proj
	ix.idist, ix.orig = next.idist, next.orig
	ix.ref = next.ref
	ix.sketch = next.sketch
	ix.norm2Sq, ix.groups = next.norm2Sq, next.groups
	ix.maxNorm2Sq = next.maxNorm2Sq
	ix.delta, ix.deltaRows, ix.tombs = next.delta, next.deltaRows, next.tombs
	ix.segs, ix.frozenEntries = next.segs, next.frozenEntries
	// The journal swaps with the generation it lives in. The persist step
	// above already saved the new generation's metadata (covering the
	// folded updates — next's journal is empty) and flipped the pointer,
	// so from here every acknowledged update journals into the generation
	// a recovery would load. The OLD generation's journal stays on disk
	// untouched until the caller retires the generation's files.
	ix.journal = next.journal

	// The old generation is retired: release the Index's reference. Its
	// pages were synced at build time and never dirtied since, so closing
	// is best-effort — in-flight snapshots keep the files open until they
	// drain, and a close failure loses nothing (surfacing it would
	// misreport the swap, which already happened, as a failed compaction).
	oldRef.release()
	oldJournal.Close()
}
