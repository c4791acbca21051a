package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"promips/internal/errs"
	"promips/internal/fsutil"
	"promips/internal/idistance"
	"promips/internal/pager"
	"promips/internal/pq"
	"promips/internal/randproj"
	"promips/internal/store"
	"promips/internal/vec"
	"promips/internal/wal"
)

// coreMeta is the gob-serialized in-memory state of an Index. The page
// files (iDistance data, original vectors) stay on disk. The
// update state rides along — Delta holds inserted-but-uncompacted points
// with their assigned ids, Deleted the tombstones — so a saved index
// reopens with exactly the results it answered before Save. Every per-point
// array here, the sketch's rows included, is indexed by id, whatever order
// the Index holds it in.
type coreMeta struct {
	Opts       Options
	N, D, M    int
	Projector  []byte
	Norm2Sq    []float64
	MaxNorm2Sq float64
	Groups     []groupMeta
	Delta      []deltaMeta
	Deleted    []uint32
	// Sketch is the marshaled PQ pre-ranking sketch. Empty in metas saved
	// before sketches existed; Open then runs without pre-ranking.
	Sketch []byte
}

type groupMeta struct {
	Code     uint32
	MinNorm1 float64
	MinID    uint32
}

type deltaMeta struct {
	ID uint32
	V  []float32
}

// decodeCoreMeta decodes and validates a promips.meta stream. Every
// failure — gob-level or a decoded value that breaks the invariants the
// search path indexes by — is ErrCorruptIndex-classified, and no input
// can panic (pinned by FuzzCoreMetaDecode).
func decodeCoreMeta(r io.Reader) (*coreMeta, error) {
	var m coreMeta
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decode meta: %v: %w", err, errs.ErrCorruptIndex)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks the structural invariants the rest of the code indexes
// by without re-checking: per-point arrays sized to N, group minima inside
// the base index, delta ids dense above the base and delta vectors of the
// index dimensionality, tombstones inside the live id range. Gob decodes
// arbitrary bytes into a well-typed struct happily, so none of this is
// guaranteed before a successful validate.
func (m *coreMeta) validate() error {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("core: meta: "+format+": %w", append(args, errs.ErrCorruptIndex)...)
	}
	if m.N < 1 || m.D < 1 || m.M < 1 || m.M > randproj.MaxM {
		return corrupt("implausible shape n=%d d=%d m=%d", m.N, m.D, m.M)
	}
	if len(m.Norm2Sq) != m.N {
		return corrupt("%d norms, want n=%d", len(m.Norm2Sq), m.N)
	}
	for i, g := range m.Groups {
		if int(g.MinID) >= m.N {
			return corrupt("group %d (code %d) minID=%d over n=%d", i, g.Code, g.MinID, m.N)
		}
	}
	for i, e := range m.Delta {
		if int(e.ID) != m.N+i {
			return corrupt("delta entry %d has id %d, want dense id %d", i, e.ID, m.N+i)
		}
		if len(e.V) != m.D {
			return corrupt("delta entry %d has dim %d, want %d", i, len(e.V), m.D)
		}
	}
	for _, id := range m.Deleted {
		if int(id) >= m.N+len(m.Delta) {
			return corrupt("tombstone %d outside id range %d", id, m.N+len(m.Delta))
		}
	}
	return nil
}

// Save persists the index metadata into its directory, alongside the page
// files Build already wrote there. An index saved to dir can be reloaded
// with Open(dir). Both meta files are written via temp-file + rename and
// the directory is fsynced afterwards, so a crash mid-Save never corrupts
// a previously saved state. Once the metadata — which embeds the full
// update delta and tombstone set — is durable, the write-ahead journal is
// truncated: its records are now covered by the meta, and replay is
// idempotent for any crash in between. The order is load-bearing: the
// journal may only shrink AFTER the directory fsync proves the meta that
// covers it durable (the crash matrix enforces this).
func (ix *Index) Save(dir string) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.closed {
		return errs.ErrClosed
	}
	fsys := ix.opts.fsys()
	if err := ix.idist.SaveFS(fsys, dir); err != nil {
		return err
	}
	// ‖o‖² and the sketch rows are held in layout order and persisted by id.
	layout := ix.idist.Layout()
	m := coreMeta{
		Opts: ix.opts, N: ix.n, D: ix.d, M: ix.m,
		Projector:  ix.proj.Encode(),
		Norm2Sq:    vec.UnpermuteRows(ix.norm2Sq, 1, layout),
		MaxNorm2Sq: ix.maxNorm2Sq,
	}
	m.Opts.fs = nil // the seam is per-process, never persisted
	m.Opts.Fsync = 0
	if ix.sketch != nil {
		sk, err := ix.sketch.Marshal(layout)
		if err != nil {
			return err
		}
		m.Sketch = sk
	}
	m.Groups = make([]groupMeta, len(ix.groups))
	for i, g := range ix.groups {
		m.Groups[i] = groupMeta{Code: g.code, MinNorm1: g.minNorm1, MinID: layout[g.minPos]}
	}
	// Frozen segments and the mutable delta fold into one dense Delta list
	// (segments hold the older ids, so segments-then-delta preserves the
	// dense ascending order validate checks).
	m.Delta = make([]deltaMeta, 0, ix.frozenEntries+len(ix.delta))
	for _, seg := range ix.segs {
		for _, e := range seg.entries {
			m.Delta = append(m.Delta, deltaMeta{ID: e.id, V: e.v})
		}
	}
	for _, e := range ix.delta {
		m.Delta = append(m.Delta, deltaMeta{ID: e.id, V: e.v})
	}
	m.Deleted = make([]uint32, 0, ix.tombs.count())
	ix.tombs.each(func(id uint32) { m.Deleted = append(m.Deleted, id) })
	sort.Slice(m.Deleted, func(i, j int) bool { return m.Deleted[i] < m.Deleted[j] })
	err := fsutil.WriteAtomic(fsys, filepath.Join(dir, "promips.meta"), func(f fsutil.File) error {
		return gob.NewEncoder(f).Encode(&m)
	})
	if err != nil {
		return fmt.Errorf("core: save meta: %w", err)
	}
	// One directory fsync makes both meta renames (idist.meta above,
	// promips.meta here) durable.
	if err := fsutil.SyncDir(fsys, dir); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// idist.meta now holds the ring directory, so the B+-tree file an older
	// version kept it in is never read again: remove it, best-effort (a file
	// left behind is harmless; the next Save tries again).
	tree := filepath.Join(dir, "idist.btree")
	if _, err := os.Stat(tree); err == nil {
		_ = fsys.Remove(tree)
	}
	// The journaled updates are durable in the meta now; empty the journal.
	// A failure here leaves a stale-but-harmless journal (replay skips
	// records the meta already covers) and surfaces so the caller retries.
	if err := ix.journal.Reset(); err != nil {
		return fmt.Errorf("core: truncate journal: %w", err)
	}
	return nil
}

// Open loads an index previously built in dir and saved with Save, then
// replays the write-ahead journal on top of the persisted delta —
// recovering updates acknowledged after the last Save. See OpenFS for the
// crash-injection seam.
func Open(dir string) (*Index, error) { return OpenFS(dir, nil) }

// OpenFS is Open writing through an explicit filesystem seam (nil means
// the real filesystem). The seam matters even on the read path: recovery
// itself writes — truncating a torn journal tail, recreating a missing
// journal — and must itself be crash-safe.
func OpenFS(dir string, fsys fsutil.FS) (*Index, error) {
	f, err := os.Open(filepath.Join(dir, "promips.meta"))
	if err != nil {
		return nil, fmt.Errorf("core: open meta: %w", err)
	}
	m, err := decodeCoreMeta(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	proj, err := randproj.Decode(m.Projector)
	if err != nil {
		return nil, fmt.Errorf("core: decode projector: %v: %w", err, errs.ErrCorruptIndex)
	}
	idist, err := idistance.Open(dir)
	if err != nil {
		return nil, err
	}
	if idist.Len() != m.N {
		idist.Close()
		return nil, fmt.Errorf("core: meta of %d points over an iDistance index of %d: %w", m.N, idist.Len(), errs.ErrCorruptIndex)
	}
	vec.PermuteRows(m.Norm2Sq, 1, idist.Layout()) // read by layout position
	orig, err := store.Open(filepath.Join(dir, "orig.data"),
		pager.Options{PageSize: m.Opts.PageSize, PoolSize: m.Opts.PoolSize})
	if err != nil {
		idist.Close()
		return nil, err
	}
	if orig.Dim() != m.D || orig.Len() != m.N {
		idist.Close()
		orig.Close()
		return nil, fmt.Errorf("core: meta of %d points, dim %d, over a vector store of %d, dim %d: %w",
			m.N, m.D, orig.Len(), orig.Dim(), errs.ErrCorruptIndex)
	}
	ix := &Index{
		opts: m.Opts, n: m.N, d: m.D, m: m.M,
		proj: proj, idist: idist, orig: orig,
		norm2Sq: m.Norm2Sq, maxNorm2Sq: m.MaxNorm2Sq,
		tombs: &tombSet{},
	}
	ix.opts.fs = fsys
	ix.segLimit = ix.opts.segmentEntries()
	ix.ref = newGenRef(idist, orig)
	closeAll := func() {
		ix.ref.release()
	}
	if ix.ref.screen, err = screenFromStore(context.Background(), orig); err != nil {
		closeAll()
		return nil, err
	}
	if len(m.Sketch) > 0 {
		sk, err := pq.UnmarshalSketch(m.Sketch)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("core: %v: %w", err, errs.ErrCorruptIndex)
		}
		// The search path indexes the sketch by base id and query dimension,
		// and update entries hold entryCodeBytes codes: a sketch of any other
		// geometry is not one Build wrote for this index.
		if sk.Len() != m.N || sk.Dim() != m.D || sk.Subspaces() > entryCodeBytes {
			closeAll()
			return nil, fmt.Errorf("core: meta: sketch of %d points, dim %d, %d subspaces over n=%d d=%d: %w",
				sk.Len(), sk.Dim(), sk.Subspaces(), m.N, m.D, errs.ErrCorruptIndex)
		}
		sk.Permute(idist.Layout())
		ix.sketch = sk
	}
	ix.groups = locateGroups(m.Groups, idist.Layout())
	if len(m.Delta) > 0 {
		ix.delta = make([]deltaEntry, 0, len(m.Delta))
		for _, e := range m.Delta {
			ix.appendDeltaLocked(newDeltaEntry(ix.sketch, e.ID, e.V))
		}
	}
	if len(m.Deleted) > 0 {
		frozen := make(map[uint32]bool, len(m.Deleted))
		for _, id := range m.Deleted {
			frozen[id] = true
		}
		ix.tombs = &tombSet{frozen: frozen}
	}
	if m.Opts.Fsync == retiredNoJournal {
		if err := ix.recreateJournal(dir); err != nil {
			closeAll()
			return nil, err
		}
	} else {
		j, recs, torn, err := wal.Open(ix.opts.fsys(), filepath.Join(dir, "wal.log"))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("core: %w", err)
		}
		ix.journal = j
		if err := ix.replayJournal(recs); err != nil {
			j.Close()
			closeAll()
			return nil, err
		}
		ix.recovery.TruncatedBytes = torn
	}
	// The replayed delta may be far past the freeze threshold (a whole
	// crash window of updates): re-freeze it as one segment so search
	// snapshots scan it as the immutable structure it is.
	ix.maybeFreezeLocked()
	// A directory written by an older version may hold per-segment image
	// files of frozen update windows. Their records are a subset of what the
	// meta and wal.log above already restored (DESIGN.md, "Durability &
	// recovery"), so they are not read — only removed, best-effort.
	legacy, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")) // the pattern is well-formed
	for _, name := range legacy {
		_ = ix.opts.fsys().Remove(name) // a file left behind is never read; the next Open tries again
	}
	return ix, nil
}

// retiredNoJournal is the persisted Options.Fsync value of the retired
// no-journal policy (see Options.Fsync).
const retiredNoJournal = 2

// recreateJournal opens an index saved under the retired no-journal policy.
// That policy's Build left any wal.log it found in place, so the file may
// hold another index's records: replace it with an empty journal, then Save
// so the meta stops naming the policy before any update is acknowledged into
// the new journal — a later Open of the old meta would empty it again. A
// crash between the two leaves the old meta over an empty journal, which the
// next Open handles the same way.
func (ix *Index) recreateJournal(dir string) error {
	j, err := wal.Create(ix.opts.fsys(), filepath.Join(dir, "wal.log"))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ix.journal = j
	if err := ix.Save(dir); err != nil {
		j.Close()
		return err
	}
	return nil
}

// replayJournal applies the journal's records on top of the state the
// metadata restored, accounting the outcome in ix.recovery.
func (ix *Index) replayJournal(recs []wal.Record) error {
	applied, skipped, err := ix.applyRecords(recs)
	ix.recovery.Replayed += applied
	ix.recovery.Skipped += skipped
	return err
}

// applyRecords applies journal records to the in-memory update state —
// without journaling them again (the caller's journal, or the primary's,
// already holds them). Records the current state already covers are
// skipped — insert ids are assigned densely and logged in order, so a
// record inserting an id below the next free one is a duplicate from a
// crash between the meta fsync and the journal truncation (or an earlier
// replica apply), and tombstoning is naturally idempotent. Records no
// crash could produce (an id gap, a wrong-dimension vector, a tombstone
// outside the live range) are ErrCorruptIndex. The skip-ahead check makes
// the idempotency safe to exploit: re-feeding a whole journal is a no-op,
// while a journal missing records the state never saw fails loudly instead
// of silently diverging. Caller holds ix.mu exclusive (or owns ix).
func (ix *Index) applyRecords(recs []wal.Record) (applied, skipped int, err error) {
	for _, r := range recs {
		switch r.Type {
		case wal.TypeInsert:
			next := uint32(ix.n + ix.frozenEntries + len(ix.delta))
			if r.ID < next {
				skipped++
				continue
			}
			if r.ID > next {
				return applied, skipped, fmt.Errorf("core: journal: insert id %d skips ahead of %d: %w", r.ID, next, errs.ErrCorruptIndex)
			}
			if len(r.Vec) != ix.d {
				return applied, skipped, fmt.Errorf("core: journal: insert id %d has dim %d, want %d: %w", r.ID, len(r.Vec), ix.d, errs.ErrCorruptIndex)
			}
			ix.appendDeltaLocked(newDeltaEntry(ix.sketch, r.ID, r.Vec))
			applied++
		case wal.TypeDelete:
			if int(r.ID) >= ix.n+ix.frozenEntries+len(ix.delta) {
				return applied, skipped, fmt.Errorf("core: journal: tombstone %d outside id range %d: %w", r.ID, ix.n+ix.frozenEntries+len(ix.delta), errs.ErrCorruptIndex)
			}
			if ix.tombs.has(r.ID) {
				skipped++
				continue
			}
			ix.tombs = ix.tombs.add(r.ID)
			applied++
		default:
			return applied, skipped, fmt.Errorf("core: journal: record type %d: %w", r.Type, errs.ErrCorruptIndex)
		}
	}
	return applied, skipped, nil
}

// ApplyWALChunk replays a chunk of another index's write-ahead journal on
// top of this one — the tail-read hook WAL-based replication
// (promips/shard.Follower) is built on. b is raw bytes of the primary's
// wal.log from some byte offset, read while the primary may still be
// appending: cont=false means the chunk starts at the top of the file
// (magic header included, byte offset 0); cont=true means it is a
// headerless record suffix resuming from a record boundary. A torn trailing
// record is cleanly ignored exactly as wal.Open would truncate it
// (wal.Decode's contract), and fully-written records are applied through
// the same idempotent path Open's recovery uses, WITHOUT journaling them
// locally — the replica's own journal stays the snapshot's, and the
// primary's log remains the single source of truth. Feeding the same bytes
// again is a no-op (applied=0, everything skipped).
//
// bytes is the length of the valid prefix consumed from b — the caller
// advances its replication offset by exactly that much and re-requests
// from there, so a chunk torn in flight (truncated mid-record) costs
// nothing but a re-fetch of the torn tail. records counts the complete
// records decoded from this chunk (not the whole file). A decode error
// means the bytes are not a crash-or-mid-write state of a journal
// (ErrCorruptIndex); an apply error means the log skips ahead of this
// replica's state — it missed an epoch and must re-snapshot.
func (ix *Index) ApplyWALChunk(b []byte, cont bool) (applied, skipped, records int, bytes int64, err error) {
	var recs []wal.Record
	if cont {
		recs, bytes, err = wal.DecodeRecords(b)
	} else {
		recs, bytes, err = wal.Decode(b)
	}
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("core: replicated journal: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return 0, 0, len(recs), 0, errs.ErrClosed
	}
	applied, skipped, err = ix.applyRecords(recs)
	if err != nil {
		// A partial apply leaves the offset unusable (some of the chunk's
		// records landed, the rest did not decode into this state): report
		// zero consumed so the caller treats the shard as needing a refresh
		// rather than resuming mid-chunk.
		return applied, skipped, len(recs), 0, err
	}
	// Freeze AFTER the whole chunk lands: the replica's segments then hold
	// only fully-applied windows, and a replica that freezes at different
	// boundaries than its primary still answers identically (segments and
	// delta are scanned the same way).
	ix.maybeFreezeLocked()
	return applied, skipped, len(recs), bytes, nil
}
