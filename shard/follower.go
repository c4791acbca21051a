package shard

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"promips"
	"promips/internal/fsutil"
	"promips/internal/wal"
)

// Follower is a read-only replica of a sharded primary, converged through
// a ReplSource — the primary's directory itself (NewDirSource) or a
// primary promipsd's /v1/repl/* endpoints (NewHTTPSource) — by two
// mechanisms:
//
//   - Journal tailing (the fast path): every Poll reads each primary
//     shard's live write-ahead journal bytes from the replica's resumable
//     byte offset and replays them through the same idempotent path crash
//     recovery uses (promips.Index.ApplyWALChunk). The journal's
//     clean-truncation rule makes mid-append (and mid-transfer) reads
//     safe — a torn trailing record is ignored and picked up whole next
//     round — and replaying an already-applied record is a no-op. Nothing
//     is re-journaled locally.
//
//   - Snapshot refresh (the slow path): a primary Save or Compact starts
//     a new journal epoch (Save empties the journal into the metadata;
//     Compact also rewrites ids), which journal replay alone cannot
//     cross. Poll detects an epoch change — the shard's CURRENT pointer
//     or persisted metadata differs from what this replica's state was
//     built on, or the journal skips ahead of (or shrinks under) the
//     replica — and re-copies that shard's tree from the source
//     wholesale, then resumes tailing. Refreshes counts these.
//
// The replica answers Search/SearchBatch/Exact — and reports Len,
// CacheStats, … — through the embedded shardSet, the same code the
// primary runs. Mutating operations return ErrReadOnlyReplica.
//
// Consistency model: eventual, with a per-shard LSN watermark
// (Watermarks/Lag) measuring convergence — watermark W on shard s means
// this replica's state covers exactly the first W records of s's current
// journal epoch. Between polls the replica serves a stale but
// crash-consistent state: every applied record was acknowledged-durable
// on the primary, and records apply in primary acknowledgement order, so
// the replica only ever shows states the primary actually passed
// through (per shard). Cross-shard, a poll walks shards in order, so the
// replica can briefly show shard 0 ahead of shard 1 — the same skew a
// crash of the primary itself can expose (see DESIGN.md).
//
// The Follower assumes the primary process is live and saving/compacting
// occasionally; it never writes to the primary's tree. One poller at a
// time: Poll is serialized internally; reads run concurrently with it
// except during a shard swap.
type Follower struct {
	shardSet // dir is the replica root, which this follower owns

	src   ReplSource   // replication transport to the primary
	epoch int64        // lineage epoch fence (see ErrStalePrimary)
	marks []followMark // guarded by shardSet.mu, like the children they describe

	pollMu    sync.Mutex // serializes Poll; guards promoted
	promoted  bool       // set by Promote: this follower is consumed
	refreshes atomic.Int64
}

// followMark pins the primary-side state a replica shard was built from:
// the shard's CURRENT content and metadata fingerprint identify the
// journal epoch, records is the LSN watermark into that epoch's journal
// and walOff the byte offset the next TailWAL resumes from (the two
// always describe the same decode boundary).
type followMark struct {
	current string
	metaSum [sha256.Size]byte
	records int
	walOff  int64
}

// Snapshot copies a sharded primary's directory tree into replicaDir —
// the bootstrap a follower starts from. The primary should be quiescent
// or recently saved; a copy torn by a concurrent Save/Compact is caught
// at OpenFollower (or by the first Poll's refresh) rather than silently
// served. replicaDir must not exist or be empty.
func Snapshot(primaryDir, replicaDir string) error {
	return SnapshotFrom(NewDirSource(primaryDir), replicaDir)
}

// OpenFollower opens replicaDir — a Snapshot of (or a previous follower
// state for) the primary at primaryDir — as a read-only replica tailing
// the primary over the shared filesystem.
func OpenFollower(replicaDir, primaryDir string) (*Follower, error) {
	return OpenFollowerFrom(replicaDir, NewDirSource(primaryDir))
}

// OpenFollowerFrom opens replicaDir as a read-only replica converging
// from src. Each shard reopens through the normal recovery path, so the
// snapshot's own journal records are folded in; convergence marks are
// initialized from the replica's files, which makes a follower restart
// safe: whatever the previous process had applied beyond its snapshot is
// simply re-applied from the primary's journal on the first Poll (replay
// is idempotent). The follower owns src and closes it on Close.
func OpenFollowerFrom(replicaDir string, src ReplSource) (*Follower, error) {
	k, epoch, err := readManifest(fsutil.OS, replicaDir)
	if err != nil {
		return nil, fmt.Errorf("shard: open follower: %w", err)
	}
	if pk, pepoch, err := src.Manifest(); err == nil {
		if pk != k {
			return nil, fmt.Errorf("shard: open follower: replica has %d shards, primary %s has %d: %w",
				k, src, pk, promips.ErrCorruptIndex)
		}
		// Epoch fence: a primary below this replica's lineage epoch is a
		// resurrected pre-failover primary — refusing it here is what makes
		// the epoch bump in Promote an actual fence.
		if pepoch < epoch {
			return nil, fmt.Errorf("shard: open follower: primary %s at epoch %d, replica at %d: %w",
				src, pepoch, epoch, promips.ErrStalePrimary)
		}
		if pepoch > epoch {
			// The primary is a promoted lineage ahead of this snapshot;
			// adopt its epoch — the first Poll's refreshes converge state.
			epoch = pepoch
		}
	}
	f := &Follower{
		shardSet: shardSet{dir: replicaDir, children: make([]*promips.Index, 0, k)},
		src:      src,
		epoch:    epoch,
		marks:    make([]followMark, k),
	}
	f.stampSource()
	for s := 0; s < k; s++ {
		childDir := filepath.Join(replicaDir, shardDirName(s))
		child, err := promips.Open(childDir)
		if err != nil {
			f.closeChildren()
			return nil, fmt.Errorf("shard: open follower shard %d: %w", s, err)
		}
		f.children = append(f.children, child)
		mark, err := markOf(childDir)
		if err != nil {
			f.closeChildren()
			return nil, fmt.Errorf("shard: follower shard %d mark: %w", s, err)
		}
		f.marks[s] = mark
	}
	return f, nil
}

// peerEpochSetter is implemented by sources that attach the follower's
// lineage epoch to every request (the HTTP source), so a primary that has
// been overtaken by a promotion learns it from the next pull and
// self-fences instead of keeping its write path open.
type peerEpochSetter interface{ SetPeerEpoch(epoch int64) }

// stampSource tells an epoch-aware source the lineage epoch this replica
// currently follows under. Caller holds pollMu (or is still constructing).
func (f *Follower) stampSource() {
	if ps, ok := f.src.(peerEpochSetter); ok {
		ps.SetPeerEpoch(f.epoch)
	}
}

// Poll converges the replica one round: for every shard, refresh from a
// primary snapshot if the shard's journal epoch changed (Save/Compact on
// the primary), otherwise ship and replay the primary's journal bytes
// from the shard's resumable offset. Returns the number of new records
// applied this round.
//
// Per-shard errors are isolated, not fatal to the round: a shard whose
// primary-side read fails transiently is skipped — its watermark and
// served state untouched — while the remaining shards still converge; the
// first error is returned after the full walk so callers can log it, and
// the next Poll retries the skipped shard from the same watermark. Two
// errors do abort the round up front: ErrStalePrimary (the primary's
// manifest epoch fell below this replica's lineage — a resurrected
// pre-failover primary whose journals must not be applied; per-shard
// reads also refuse responses stamped with a stale epoch mid-stream) and
// ErrClosed after Promote consumed this follower. Poll calls are
// serialized; reads stay concurrent except during a shard swap.
func (f *Follower) Poll() (applied int, err error) {
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	if f.promoted {
		return 0, fmt.Errorf("shard: poll: follower was promoted: %w", promips.ErrClosed)
	}
	if err := f.fenceEpoch(); err != nil {
		return 0, err
	}
	var firstErr error
	for s := range f.children {
		n, err := f.pollShard(s)
		applied += n
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard: poll shard %d: %w", s, err)
		}
	}
	return applied, firstErr
}

// fenceEpoch re-reads the primary's manifest epoch and enforces the
// lineage fence. A transiently unreadable primary manifest is not an
// error here (the per-shard reads will surface real problems) — unless
// the source itself reports ErrStalePrimary, which IS the fence firing.
// An epoch below ours is ErrStalePrimary, an epoch above ours is adopted.
// Caller holds pollMu.
func (f *Follower) fenceEpoch() error {
	_, pepoch, err := f.src.Manifest()
	if err != nil {
		if errors.Is(err, promips.ErrStalePrimary) {
			return fmt.Errorf("shard: poll: %w", err)
		}
		return nil
	}
	if pepoch < f.epoch {
		return fmt.Errorf("shard: poll: primary at epoch %d, replica at %d: %w",
			pepoch, f.epoch, promips.ErrStalePrimary)
	}
	if pepoch > f.epoch {
		f.epoch = pepoch
		f.stampSource()
	}
	return nil
}

// pollShard converges one shard. Caller holds pollMu.
func (f *Follower) pollShard(s int) (int, error) {
	st, err := f.src.ShardState(s)
	if err != nil {
		return 0, err
	}
	if staleStamp(st.Epoch, f.epoch) {
		return 0, errStaleStamp("shard state", st.Epoch, f.epoch)
	}
	f.mu.RLock()
	mark := f.marks[s]
	child := f.children[s]
	f.mu.RUnlock()
	if st.Current != mark.current || st.MetaSum != mark.metaSum {
		// New journal epoch: the primary saved (journal folded into meta —
		// meta fingerprint moves even when CURRENT does not, e.g. a
		// delete-only epoch) or compacted (CURRENT names a new
		// generation). Journal replay cannot cross an epoch; re-snapshot.
		return 0, f.refreshShard(s)
	}
	chunk, err := f.src.TailWAL(s, mark.walOff)
	if err != nil {
		return 0, err
	}
	if staleStamp(chunk.Epoch, f.epoch) {
		return 0, errStaleStamp("wal chunk", chunk.Epoch, f.epoch)
	}
	if chunk.Size < mark.walOff {
		// The journal shrank under us: a Save/Compact truncated it between
		// the fingerprint read and the tail read. Re-snapshot.
		return 0, f.refreshShard(s)
	}
	res, err := child.ApplyWALChunk(chunk.Data, mark.walOff > 0)
	if err != nil {
		// The journal skips ahead of this replica (it missed an epoch
		// boundary between our two reads) or cannot be decoded against
		// this state: fall back to a snapshot refresh.
		return 0, f.refreshShard(s)
	}
	f.mu.Lock()
	f.marks[s].records += res.Records
	f.marks[s].walOff += res.Bytes
	f.mu.Unlock()
	return res.Applied, nil
}

// refreshShard replaces replica shard s with a fresh copy of the
// primary's. The new copy is opened BEFORE the old child is swapped out,
// so a torn copy (primary saving mid-walk, transport cut mid-stream)
// leaves the old shard serving and the next Poll retries.
func (f *Follower) refreshShard(s int) error {
	final := filepath.Join(f.dir, shardDirName(s))
	tmp := final + ".refresh"
	os.RemoveAll(tmp)
	if err := f.src.SnapshotShard(s, tmp); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("refresh copy: %w", err)
	}
	child, err := promips.Open(tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("refresh open: %w", err)
	}
	mark, err := markOf(tmp)
	if err != nil {
		child.Close()
		os.RemoveAll(tmp)
		return fmt.Errorf("refresh mark: %w", err)
	}
	f.mu.Lock()
	old := f.children[s]
	f.children[s] = child
	f.marks[s] = mark
	f.mu.Unlock()
	old.Close()
	// Install the copy under its final name. The open child's descriptors
	// survive the rename (and even an unlink by a later refresh) — the
	// follower never writes through paths. Best-effort: a failure leaves
	// the copy serving from the .refresh name until the next refresh.
	os.RemoveAll(final)
	os.Rename(tmp, final)
	f.refreshes.Add(1)
	return nil
}

// Watermarks returns each shard's replication LSN watermark: how many
// records of the primary shard's current journal epoch this replica's
// state covers, in shard order.
func (f *Follower) Watermarks() []int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ws := make([]int64, len(f.marks))
	for s, m := range f.marks {
		ws[s] = int64(m.records)
	}
	return ws
}

// Lag measures how far this replica trails the primary, in acknowledged
// journal records summed over shards: primary records present now minus
// this replica's watermarks. 0 means converged as of the read; a
// negative component is clamped (the primary started a new epoch the
// replica has not polled yet — the true lag is unknown until it does).
func (f *Follower) Lag() (int64, error) {
	f.mu.RLock()
	marks := make([]followMark, len(f.marks))
	copy(marks, f.marks)
	f.mu.RUnlock()
	var lag int64
	for s, m := range marks {
		st, err := f.src.ShardState(s)
		if err != nil {
			return 0, fmt.Errorf("shard: lag shard %d: %w", s, err)
		}
		if d := st.WALRecords - int64(m.records); d > 0 {
			lag += d
		}
	}
	return lag, nil
}

// Refreshes returns how many snapshot refreshes this follower has
// performed (epoch crossings: primary Saves/Compacts caught up with).
func (f *Follower) Refreshes() int64 { return f.refreshes.Load() }

// Insert always fails: replicas converge by replaying the primary's
// journal, and a direct write would fork the id space.
func (f *Follower) Insert(v []float32) (uint32, error) {
	return 0, fmt.Errorf("shard: insert: %w", promips.ErrReadOnlyReplica)
}

// Delete always fails; see Insert.
func (f *Follower) Delete(id uint32) bool { return false }

// DeleteChecked always fails; see Insert.
func (f *Follower) DeleteChecked(id uint32) (bool, error) {
	return false, fmt.Errorf("shard: delete: %w", promips.ErrReadOnlyReplica)
}

// Save always fails: the replica's directory is a cache of the primary's
// state, not an independent lineage.
func (f *Follower) Save() error {
	return fmt.Errorf("shard: save: %w", promips.ErrReadOnlyReplica)
}

// Close releases every replica shard and the replication source. The
// replica directory is kept: a restarted follower reopens it and catches
// up from the primary's journals instead of re-copying everything. After
// Promote, Close is a no-op: the children now belong to the promoted
// Index, whose own Close releases them.
func (f *Follower) Close() error {
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	if f.promoted {
		return nil
	}
	f.src.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closeChildrenLocked()
}

func (f *Follower) closeChildren() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closeChildrenLocked()
}

func (f *Follower) closeChildrenLocked() error {
	var first error
	for _, c := range f.children {
		if c == nil {
			continue
		}
		if err := c.Close(); first == nil {
			first = err
		}
	}
	return first
}

// Epoch returns the lineage epoch this replica follows under — the fence
// a resurrected pre-failover primary is measured against.
func (f *Follower) Epoch() int64 {
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	return f.epoch
}

// Source names the replication source this follower converges from.
func (f *Follower) Source() string { return f.src.String() }

// epochOf fingerprints a primary shard's current journal epoch: the raw
// CURRENT content, the generation it names, and a digest of that
// generation's persisted metadata. Reads go through fsys so the fault
// harness can inject transient primary-side read failures.
func epochOf(fsys fsutil.FS, shardDir string) (current, gen string, metaSum [sha256.Size]byte, err error) {
	curB, err := fsys.ReadFile(filepath.Join(shardDir, "CURRENT"))
	if err != nil {
		if !os.IsNotExist(err) {
			return "", "", metaSum, err
		}
		curB = nil // root layout: never compacted
	}
	current = string(curB)
	gen = strings.TrimSpace(current)
	if gen == "." {
		gen = ""
	}
	if strings.ContainsAny(gen, "/\\") {
		return "", "", metaSum, fmt.Errorf("invalid CURRENT %q: %w", gen, promips.ErrCorruptIndex)
	}
	metaB, err := fsys.ReadFile(filepath.Join(shardDir, gen, "promips.meta"))
	if err != nil && !os.IsNotExist(err) {
		return "", "", metaSum, err
	}
	return current, gen, sha256.Sum256(metaB), nil
}

// markOf builds the convergence mark for a replica shard directory: its
// own epoch fingerprint plus its journal's record count and valid byte
// length (the resumable tail offset — the replica's journal is a
// byte-for-byte prefix of the primary's for the same epoch, so its valid
// length IS the primary-side offset to resume from). Immediately after a
// snapshot these equal the primary's at copy time; on a follower restart
// they pin whatever state the replica durably holds, so the next Poll
// resumes (or refreshes) from the right place.
func markOf(shardDir string) (followMark, error) {
	current, gen, metaSum, err := epochOf(fsutil.OS, shardDir)
	if err != nil {
		return followMark{}, err
	}
	walB, err := os.ReadFile(filepath.Join(shardDir, filepath.FromSlash(gen), "wal.log"))
	if err != nil && !os.IsNotExist(err) {
		return followMark{}, err
	}
	recs, validLen, err := wal.Decode(walB)
	if err != nil {
		return followMark{}, err
	}
	return followMark{current: current, metaSum: metaSum, records: len(recs), walOff: validLen}, nil
}
