package shard

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"promips"
	"promips/internal/fsutil"
	"promips/internal/wal"
)

// ReplSource abstracts a follower's read access to its primary. There is
// one network transport, NewHTTPSource, which pulls over promipsd's
// /v1/repl/* endpoints; NewDirSource is not a second transport beside it
// but the reader of a primary's directory that everything else stands on:
// NewReplHandler serves those endpoints from one, the offline `promipsctl
// promote -primary DIR` drains a dead primary's journals through one, and
// the snapshot/promote fault tests inject FaultFS errors through its
// filesystem seam. A follower on the primary's own machine may use it
// directly.
//
// The contract mirrors what the primary's directory durably holds, so the
// two sources are interchangeable record for record:
//
//   - Manifest is the SHARDS manifest: shard count and failover epoch.
//   - ShardState fingerprints one shard's journal epoch (raw CURRENT
//     bytes, the generation it names, a digest of that generation's
//     persisted metadata) plus the journal's current record count and byte
//     size — everything Poll and Lag need before touching journal bytes.
//   - TailWAL reads the shard's current-generation journal from a byte
//     offset. The bytes are the journal's own on-disk format, so
//     wal.Decode's torn-tail/corruption taxonomy applies to the wire
//     unchanged: a chunk truncated in flight is a torn tail, re-fetched
//     from where the valid prefix ended.
//   - SnapshotShard materializes a full copy of one shard's directory
//     tree at a local path — the epoch-crossing slow path.
//
// Epoch stamping: sources that cross a trust boundary (HTTP) stamp every
// ShardState and WALChunk with the failover epoch the primary served it
// under, so a fenced pre-failover primary is refused mid-stream
// (ErrStalePrimary) instead of only at the next manifest read. A stamp of
// UnstampedEpoch means the source is a trusted local read and the
// per-round manifest fence is the only check (the shared-filesystem
// source, where primary and follower cannot disagree about history
// without the manifest saying so).
//
// Errors are transient unless they wrap promips.ErrStalePrimary or
// promips.ErrCorruptIndex: the follower isolates them per shard and
// retries from the same offset next round.
type ReplSource interface {
	// Manifest reads the primary's SHARDS manifest.
	Manifest() (k int, epoch int64, err error)
	// ShardState fingerprints shard s's journal epoch and measures its
	// journal.
	ShardState(s int) (ShardState, error)
	// TailWAL reads shard s's current journal from byte offset off.
	TailWAL(s int, off int64) (WALChunk, error)
	// SnapshotShard copies shard s's directory tree into local dst.
	SnapshotShard(s int, dst string) error
	// String names the source for logs ("dir:/path" or the base URL).
	String() string
	// Close releases transport resources.
	Close() error
}

// UnstampedEpoch marks a ShardState or WALChunk served by a trusted local
// source that does not stamp per-response epochs.
const UnstampedEpoch int64 = -1

// ShardState pins one primary shard's replication state at a read instant.
type ShardState struct {
	// Current is the raw content of the shard's CURRENT pointer ("" for a
	// never-compacted root layout) and Gen the generation directory it
	// names — together with MetaSum (sha256 of the generation's persisted
	// metadata) they fingerprint the journal epoch: any Save or Compact
	// moves at least one of them.
	Current string
	Gen     string
	MetaSum [sha256.Size]byte
	// WALRecords and WALSize measure the shard's current journal: complete
	// records (the primary's durable LSN watermark) and total bytes.
	WALRecords int64
	WALSize    int64
	// Epoch is the failover epoch stamped on this read; UnstampedEpoch for
	// trusted local sources.
	Epoch int64
}

// WALChunk is one TailWAL read.
type WALChunk struct {
	// Data holds journal bytes from the requested offset: the file header
	// onward for offset 0, a headerless record sequence for offsets past
	// it (promips.Index.ApplyWALChunk's cont form).
	Data []byte
	// Size is the journal's total byte size at read time. Size below the
	// requested offset means the journal was truncated under the reader —
	// a Save/Compact epoch the fingerprint check raced — and the shard
	// must refresh.
	Size int64
	// Epoch is the failover epoch stamped on this read; UnstampedEpoch for
	// trusted local sources.
	Epoch int64
}

// NewDirSource returns the ReplSource that reads a primary's directory
// tree directly: the reader behind NewReplHandler and the offline
// `promipsctl promote -primary DIR` drain, and — through its fsutil seam —
// the one the snapshot/promote fault tests tear and fail (see ReplSource).
func NewDirSource(primaryDir string) ReplSource {
	return &dirSource{dir: primaryDir, fs: fsutil.OS}
}

// dirSource reads the primary's tree through an fsutil.FS so the fault
// harness can inject transient read errors and torn copies.
type dirSource struct {
	dir string
	fs  fsutil.FS
}

func (d *dirSource) Manifest() (int, int64, error) {
	return readManifest(d.fs, d.dir)
}

func (d *dirSource) ShardState(s int) (ShardState, error) {
	shardDir := filepath.Join(d.dir, shardDirName(s))
	cur, gen, metaSum, err := epochOf(d.fs, shardDir)
	if err != nil {
		return ShardState{}, err
	}
	walB, err := d.readWAL(shardDir, gen)
	if err != nil {
		return ShardState{}, err
	}
	n, err := wal.CountRecords(walB)
	if err != nil {
		return ShardState{}, err
	}
	return ShardState{
		Current: cur, Gen: gen, MetaSum: metaSum,
		WALRecords: int64(n), WALSize: int64(len(walB)),
		Epoch: UnstampedEpoch,
	}, nil
}

func (d *dirSource) TailWAL(s int, off int64) (WALChunk, error) {
	shardDir := filepath.Join(d.dir, shardDirName(s))
	_, gen, _, err := epochOf(d.fs, shardDir)
	if err != nil {
		return WALChunk{}, err
	}
	walB, err := d.readWAL(shardDir, gen)
	if err != nil {
		return WALChunk{}, err
	}
	c := WALChunk{Size: int64(len(walB)), Epoch: UnstampedEpoch}
	if off < c.Size {
		c.Data = walB[off:]
	}
	return c, nil
}

// readWAL reads a shard generation's journal; a missing file is an empty
// journal. Every open index has a wal.log, but a generation written by an
// older version may lack one until the primary next opens it.
func (d *dirSource) readWAL(shardDir, gen string) ([]byte, error) {
	b, err := d.fs.ReadFile(filepath.Join(shardDir, filepath.FromSlash(gen), "wal.log"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return b, nil
}

func (d *dirSource) SnapshotShard(s int, dst string) error {
	return copyTree(d.fs, filepath.Join(d.dir, shardDirName(s)), dst)
}

func (d *dirSource) String() string { return "dir:" + d.dir }

func (d *dirSource) Close() error { return nil }

// SnapshotFrom bootstraps replicaDir as a copy of the primary behind src:
// every shard's tree is copied, then the SHARDS manifest is written LAST —
// a bootstrap torn partway (crash, transport cut) leaves a directory
// without a manifest, which IsSharded reports false and promipsd
// re-bootstraps, rather than a manifest over missing shards. replicaDir
// must not exist or be empty; a partially-copied previous attempt must be
// removed first.
func SnapshotFrom(src ReplSource, replicaDir string) error {
	k, epoch, err := src.Manifest()
	if err != nil {
		return fmt.Errorf("shard: snapshot source: %w", err)
	}
	for s := 0; s < k; s++ {
		if err := src.SnapshotShard(s, filepath.Join(replicaDir, shardDirName(s))); err != nil {
			return fmt.Errorf("shard: snapshot shard %d: %w", s, err)
		}
	}
	if err := writeManifest(fsutil.OS, replicaDir, k, epoch); err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}
	return nil
}

// copyTree copies the regular files of a directory tree, reading and
// writing through fsys so the fault harness can tear a copy mid-file or
// fail a read mid-tree. Symlinks and other specials are rejected — index
// directories contain none.
func copyTree(fsys fsutil.FS, src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case info.IsDir():
			return os.MkdirAll(target, 0o755)
		case info.Mode().IsRegular():
			return copyFile(fsys, path, target)
		default:
			return fmt.Errorf("copy %s: unsupported file type %v", path, info.Mode().Type())
		}
	})
}

func copyFile(fsys fsutil.FS, src, dst string) error {
	b, err := fsys.ReadFile(src)
	if err != nil {
		return err
	}
	out, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	if _, err := out.Write(b); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// staleStamp reports whether a stamped read came from a primary whose
// epoch fell below the follower's lineage.
func staleStamp(stamp, lineage int64) bool {
	return stamp != UnstampedEpoch && stamp < lineage
}

// errStaleStamp builds the mid-stream fence error.
func errStaleStamp(what string, stamp, lineage int64) error {
	return fmt.Errorf("shard: %s stamped epoch %d below replica lineage %d: %w",
		what, stamp, lineage, promips.ErrStalePrimary)
}
