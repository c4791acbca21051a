// Package shard composes K promips indexes into one logical index: a
// sharded primary (Index) that routes updates by id and fans queries out
// in parallel, and a read-only replica (Follower) that converges on a
// primary by shipping its snapshots and tailing its write-ahead journals.
//
// The id space is striped: global id g lives on shard g mod K as local id
// g div K. Build assigns point i to shard i%K, and Insert routes each new
// point to the shard whose next global id is smallest — which reproduces,
// exactly, the dense 0,1,2,… assignment a single index would have made.
// Global ids are therefore stable across shard counts: the same build +
// update sequence yields the same ids at K=1 and K=8 (deletes never free
// ids, so the emulation cannot drift). The merged Search answer carries
// the caller's (c, p) guarantee by splitting the probability budget across
// shards (see fanout.go and DESIGN.md, "Sharding & replication").
//
// Each shard is a full promips.Index in its own subdirectory — own
// generations, own CURRENT, own journal — under one root carrying a SHARDS
// manifest. Crash recovery composes per shard: each child reopens to its
// last acknowledged state independently, and because acknowledgement order
// within one shard is the only order the journal promises, the composed
// index recovers to a state some crash of a single index could also have
// produced.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"promips"
	"promips/internal/fsutil"
	"promips/internal/par"
)

// Options configures Build.
type Options struct {
	// Shards is the shard count K. 0 defaults to 1; with one shard the
	// logical index is a pass-through (byte-identical answers and stats to
	// an unsharded index over the same data and options).
	Shards int

	// Dir is the root directory: the SHARDS manifest plus one shard-NNN
	// subdirectory per child. Empty means a fresh temporary directory,
	// removed on Close unless the index was Saved.
	Dir string

	// Index configures every child index. Its Dir field is ignored (the
	// children live under the root); everything else — c, p, m, page
	// geometry, pool size, fsync policy — applies per shard. Each child's
	// random seed is Index.Seed + its shard number, so shards draw
	// different projections while the whole build stays deterministic.
	Index promips.Options

	// fs is the filesystem seam (crash-injection harness); nil = the real
	// filesystem. Threaded into every child and into the manifest writes.
	fs fsutil.FS
}

// WithFS returns a copy of o writing through fsys. fsutil is an internal
// package, so only this module's tests can construct a non-default seam;
// external callers always get the real filesystem.
func (o Options) WithFS(fsys fsutil.FS) Options {
	o.fs = fsys
	return o
}

// Index is a sharded logical index over K promips.Index children. Reads
// fan out to every shard in parallel; updates route to the owning shard.
// All methods are safe for concurrent use — queries and updates go
// straight to the children, whose own locks order them against lifecycle
// operations; Save, Compact and Close serialize on the Index. The read
// and reporting methods (Search, SearchBatch, Exact, Len, CacheStats, …)
// are the embedded shardSet's, shared with Follower.
type Index struct {
	shardSet
	fs    fsutil.FS
	epoch int64 // failover epoch fence (manifest); bumped by Promote

	lifeMu  sync.Mutex // lifecycle: Save, Compact, Close
	ownsDir bool
	saved   bool
	closed  bool
}

// Build constructs a sharded index over data, assigning point i to shard
// i%K as local point i/K — global ids come out identical to an unsharded
// Build over the same data. Each shard must receive at least one point,
// so len(data) >= K is required. Shards build side by side; if any fail, the
// lowest-numbered failure is returned after every shard that did build has
// been closed (and a temporary root removed).
func Build(data [][]float32, opts Options) (*Index, error) {
	k := opts.Shards
	if k == 0 {
		k = 1
	}
	if k < 1 || k > maxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1, %d]", k, maxShards)
	}
	if len(data) > 0 && len(data) < k {
		return nil, fmt.Errorf("shard: %d points cannot populate %d shards (need at least one point per shard)", len(data), k)
	}
	dir := opts.Dir
	ownsDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "promips-shards-*")
		if err != nil {
			return nil, fmt.Errorf("shard: temp dir: %w", err)
		}
		dir, ownsDir = d, true
	}
	fsys := opts.fs
	if fsys == nil {
		fsys = fsutil.OS
	}
	// Round-robin partition, order-preserving within each shard: shard s
	// gets points s, s+K, s+2K, … as locals 0, 1, 2, …
	parts := make([][][]float32, k)
	for s := range parts {
		parts[s] = make([][]float32, 0, (len(data)+k-1-s)/k)
	}
	for i, v := range data {
		parts[i%k] = append(parts[i%k], v)
	}
	// The children share nothing — own seed, own directory, own slice of
	// the data — so they build as tasks of the build worker pool, as many
	// at once as there are workers, each parallel inside as well. A failure
	// stops shards that have not started; tasks start in shard order, so
	// those all lie above the failed one.
	children := make([]*promips.Index, k)
	errs := make([]error, k)
	par.Do(context.Background(), k, func(s int) error {
		childDir := filepath.Join(dir, shardDirName(s))
		if errs[s] = os.MkdirAll(childDir, 0o755); errs[s] == nil {
			childOpts := opts.Index
			childOpts.Dir = childDir
			childOpts.Seed += int64(s)
			children[s], errs[s] = promips.Build(parts[s], childOpts.WithFS(fsys))
		}
		return errs[s]
	})
	for s, err := range errs {
		if err == nil {
			continue
		}
		// The lowest-numbered failure is reported; tear down the shards
		// that did build, and the root if Build created it.
		for _, c := range children {
			if c != nil {
				c.Close()
			}
		}
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("shard: build shard %d: %w", s, err)
	}
	return &Index{shardSet: shardSet{dir: dir, children: children}, fs: fsys, ownsDir: ownsDir}, nil
}

// Open loads a sharded index previously persisted with Save: the SHARDS
// manifest fixes K, and every child reopens through promips.Open —
// replaying its own write-ahead journal, so acknowledged updates on every
// shard survive a crash. A directory without a manifest surfaces the
// underlying not-exist error — unless it holds a bare promips index (one
// written by promips.Build/Save directly, or by promipsctl build before
// every index was sharded), which gets its own error saying how to
// rebuild it: promips.Open is for embedded-library use only, and nothing
// that serves indexes reads that layout. A manifest naming shards whose
// directories cannot be loaded surfaces that child's error.
func Open(dir string) (*Index, error) {
	k, epoch, err := readManifest(fsutil.OS, dir)
	if err != nil {
		if !notExist(err) {
			return nil, err
		}
		if holdsBareIndex(dir) {
			return nil, fmt.Errorf("shard: open %s: holds a bare promips index (no %s manifest), but promipsd and promipsctl serve only the sharded layout: rebuild it from its vectors with `promipsctl build` (-shards defaults to 1), or open it in-process with promips.Open", dir, manifestFile)
		}
		return nil, fmt.Errorf("shard: open %s: %w (no %s manifest — not a sharded index)", dir, err, manifestFile)
	}
	ix := &Index{shardSet: shardSet{dir: dir, children: make([]*promips.Index, 0, k)}, fs: fsutil.OS, epoch: epoch, saved: true}
	for s := 0; s < k; s++ {
		child, err := promips.Open(filepath.Join(dir, shardDirName(s)))
		if err != nil {
			for _, c := range ix.children {
				c.Close()
			}
			return nil, fmt.Errorf("shard: open shard %d: %w", s, err)
		}
		ix.children = append(ix.children, child)
	}
	return ix, nil
}

// Insert adds a point and returns its global id. The point routes to the
// shard whose next global id (nextLocal·K + s) is smallest — exactly the
// id a single index would have assigned next, since ids are never freed.
// Durability is the owning shard's: the insert is journaled under the
// child's fsync policy before it is acknowledged.
//
// Routing reads the shards' next-id watermarks without a global lock, so
// two perfectly concurrent Inserts may land on the same shard in either
// order — ids stay unique and dense per shard either way; only the
// emulated single-index numbering assumes one insert at a time.
func (ix *Index) Insert(v []float32) (uint32, error) {
	k := len(ix.children)
	best, bestGlobal := 0, uint32(0)
	for s, c := range ix.children {
		g := c.NextID()*uint32(k) + uint32(s)
		if s == 0 || g < bestGlobal {
			best, bestGlobal = s, g
		}
	}
	local, err := ix.children[best].Insert(v)
	if err != nil {
		return 0, fmt.Errorf("shard %d: %w", best, err)
	}
	return local*uint32(k) + uint32(best), nil
}

// Delete tombstones the point with global id and reports whether it was
// live, conflating failure modes like promips.Index.Delete.
func (ix *Index) Delete(id uint32) bool {
	ok, _ := ix.DeleteChecked(id)
	return ok
}

// DeleteChecked tombstones like Delete but surfaces failure modes as
// typed errors; see promips.Index.DeleteChecked. An id beyond every
// shard's range is (false, nil) — absent, like a never-assigned id on a
// single index.
func (ix *Index) DeleteChecked(id uint32) (bool, error) {
	k := uint32(len(ix.children))
	s := id % k
	ok, err := ix.children[s].DeleteChecked(id / k)
	if err != nil {
		return ok, fmt.Errorf("shard %d: %w", s, err)
	}
	return ok, nil
}

// Save persists every shard — each child folds its delta and tombstones
// into its metadata and empties its journal — then durably writes the
// SHARDS manifest, marking the root as a saved, openable sharded index.
// Children save in shard order; a failure surfaces immediately, leaving
// already-saved shards saved (re-running Save is idempotent). A crash
// mid-sequence is safe for the same reason single-index Save-crash is:
// each shard independently recovers its acknowledged state from meta +
// journal, whichever side of its own Save it crashed on.
func (ix *Index) Save() error {
	ix.lifeMu.Lock()
	defer ix.lifeMu.Unlock()
	if ix.closed {
		return promips.ErrClosed
	}
	for s, c := range ix.children {
		if err := c.Save(); err != nil {
			return fmt.Errorf("shard: save shard %d: %w", s, err)
		}
	}
	if err := writeManifest(ix.fs, ix.dir, len(ix.children), ix.epoch); err != nil {
		return err
	}
	ix.saved = true
	return nil
}

// Compact folds every shard's delta into its disk-resident structures and
// drops tombstones, shard by shard; searches keep answering throughout
// (each child compacts behind its own generation swap). Local ids are
// reassigned densely per shard, so global ids change; the returned map
// gives newGlobalID → oldGlobalID for every surviving point. (A map, not
// a slice: per-shard dense local ids do not compose into dense global
// ids once shard sizes diverge.) A shard whose points are all deleted is
// left uncompacted (ErrEmptyIndex is skipped — it still serves deletes'
// tombstones); any other error stops the sequence, leaving earlier shards
// compacted and the rest untouched, with the partial remap returned.
func (ix *Index) Compact(ctx context.Context) (map[uint32]uint32, error) {
	ix.lifeMu.Lock()
	defer ix.lifeMu.Unlock()
	if ix.closed {
		return nil, promips.ErrClosed
	}
	k := uint32(len(ix.children))
	remap := make(map[uint32]uint32)
	for s, c := range ix.children {
		childRemap, err := c.Compact(ctx)
		if err != nil {
			if errors.Is(err, promips.ErrEmptyIndex) {
				continue
			}
			return remap, fmt.Errorf("shard: compact shard %d: %w", s, err)
		}
		for newLocal, oldLocal := range childRemap {
			remap[uint32(newLocal)*k+uint32(s)] = oldLocal*k + uint32(s)
		}
	}
	return remap, nil
}

// Close releases every shard. When Build created a temporary root and the
// index was never Saved, the root is removed.
func (ix *Index) Close() error {
	ix.lifeMu.Lock()
	defer ix.lifeMu.Unlock()
	if ix.closed {
		return promips.ErrClosed
	}
	ix.closed = true
	var first error
	for _, c := range ix.children {
		if err := c.Close(); first == nil {
			first = err
		}
	}
	if ix.ownsDir && !ix.saved {
		if err := os.RemoveAll(ix.dir); first == nil {
			first = err
		}
	}
	return first
}

// Epoch returns the failover epoch fence this primary serves under: 0 for
// an original Build lineage, and one past the superseded primary's epoch
// after every Promote. Followers refuse primaries below their own epoch.
func (ix *Index) Epoch() int64 { return ix.epoch }

// Options returns the resolved per-shard index options. They are
// identical across shards except for Dir and Seed, which are the first
// shard's.
func (ix *Index) Options() promips.Options { return ix.children[0].Options() }

// StartAutoCompact launches a background scheduler that compacts each
// shard once at least minSegments of ITS frozen segments have accumulated
// (the per-shard count, not the sum — compaction is a per-child rebuild,
// so only children that actually accumulated segments pay for one). Like
// promips.Index.StartAutoCompact, the compactions reassign ids — here
// global ids, since the shard-local dense renumbering composes through the
// striping — so enable it only when no external system holds ids across
// compactions. Stop the returned scheduler before Close; a follower must
// never run one.
func (ix *Index) StartAutoCompact(minSegments int) *promips.AutoCompactor {
	if minSegments < 1 {
		minSegments = 1
	}
	due := func(c *promips.Index) bool {
		return c.UpdateStats().Segments >= minSegments
	}
	return promips.NewAutoCompactor(
		func() bool {
			for _, c := range ix.children {
				if due(c) {
					return true
				}
			}
			return false
		},
		func(ctx context.Context) error {
			var first error
			for s, c := range ix.children {
				if err := ctx.Err(); err != nil {
					return err
				}
				if !due(c) {
					continue
				}
				if _, err := c.Compact(ctx); err != nil && !errors.Is(err, promips.ErrEmptyIndex) && first == nil {
					first = fmt.Errorf("shard %d: %w", s, err)
				}
			}
			return first
		},
	)
}

// Sizes sums the storage footprint of every shard.
func (ix *Index) Sizes() promips.SizeBreakdown {
	var sz promips.SizeBreakdown
	for _, c := range ix.children {
		s := c.Sizes()
		sz.RingDir += s.RingDir
		sz.Projected += s.Projected
		sz.QuickProbe += s.QuickProbe
		sz.Norms += s.Norms
		sz.Sketch += s.Sketch
	}
	return sz
}
