package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"promips"
	"promips/internal/fsutil"
)

// The SHARDS manifest is the root of a sharded index directory: a tiny
// text file recording the shard count, written atomically (temp + fsync +
// rename + directory fsync) by Save. It is what makes a directory an index
// promipsd and promipsctl will open, and its K is load-bearing: the
// id-space layout (globalID = localID·K + shard) is a pure function of K,
// so opening with the wrong K would silently mis-route every id. K is
// therefore fixed at Build and validated on every Open.
//
// The manifest also carries the directory's failover epoch — a monotonic
// fence bumped by Promote. A follower refuses to tail a primary whose
// epoch is below its own (ErrStalePrimary): that primary's lineage was
// superseded by a promotion, and replaying its journals would fork
// acknowledged history. Manifests written before epochs existed have no
// epoch line and parse as epoch 0.
//
// Format, one token pair per line (the epoch line optional on read,
// always written):
//
//	PROMIPS-SHARDS v1
//	shards <K>
//	epoch <E>
const (
	manifestFile  = "SHARDS"
	manifestMagic = "PROMIPS-SHARDS v1"
	// maxShards bounds K to keep the fan-out sane and the parser total: a
	// manifest asking for more shards than any deployment would configure
	// is corruption, not configuration.
	maxShards = 1024
)

// shardDirName names shard s's child directory under the index root.
func shardDirName(s int) string { return fmt.Sprintf("shard-%03d", s) }

// writeManifest durably records K and the failover epoch in dir.
func writeManifest(fsys fsutil.FS, dir string, k int, epoch int64) error {
	content := fmt.Sprintf("%s\nshards %d\nepoch %d\n", manifestMagic, k, epoch)
	err := fsutil.WriteAtomic(fsys, filepath.Join(dir, manifestFile), func(f fsutil.File) error {
		_, err := f.Write([]byte(content))
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := fsutil.SyncDir(fsys, dir); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// readManifest parses dir's SHARDS manifest. A missing file returns the
// underlying fs.ErrNotExist ("this is not a sharded index"); content that
// cannot be a manifest is ErrCorruptIndex — the same trust boundary
// CURRENT's parser draws (pinned by FuzzParseManifest).
func readManifest(fsys fsutil.FS, dir string) (int, int64, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return 0, 0, err
	}
	k, epoch, err := parseManifest(b)
	if err != nil {
		return 0, 0, fmt.Errorf("shard: %s: %w", manifestFile, err)
	}
	return k, epoch, nil
}

// parseManifest validates manifest bytes and extracts K and the failover
// epoch (0 when the line is absent — pre-epoch manifests).
func parseManifest(b []byte) (int, int64, error) {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if (len(lines) != 2 && len(lines) != 3) || lines[0] != manifestMagic {
		return 0, 0, fmt.Errorf("bad magic: %w", promips.ErrCorruptIndex)
	}
	var k int
	if _, err := fmt.Sscanf(lines[1], "shards %d", &k); err != nil {
		return 0, 0, fmt.Errorf("bad shard count line %q: %w", lines[1], promips.ErrCorruptIndex)
	}
	if k < 1 || k > maxShards {
		return 0, 0, fmt.Errorf("implausible shard count %d: %w", k, promips.ErrCorruptIndex)
	}
	var epoch int64
	if len(lines) == 3 {
		if _, err := fmt.Sscanf(lines[2], "epoch %d", &epoch); err != nil {
			return 0, 0, fmt.Errorf("bad epoch line %q: %w", lines[2], promips.ErrCorruptIndex)
		}
		if epoch < 0 {
			return 0, 0, fmt.Errorf("negative epoch %d: %w", epoch, promips.ErrCorruptIndex)
		}
	}
	return k, epoch, nil
}

// IsSharded reports whether dir holds a sharded index — a valid SHARDS
// manifest. promipsd and promipsctl snapshot use it to tell a directory
// to bootstrap into from one to leave alone. An unreadable or invalid
// manifest reports false; Open will surface the real error.
func IsSharded(dir string) bool {
	k, _, err := readManifest(fsutil.OS, dir)
	return err == nil && k >= 1
}

// holdsBareIndex reports whether dir looks like a promips index saved
// without a shard layer around it: the root-layout metadata file or a
// CURRENT generation pointer directly under dir.
func holdsBareIndex(dir string) bool {
	for _, name := range []string{"promips.meta", "CURRENT"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// notExist reports whether err means the manifest simply is not there.
func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
