package idistance

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"promips/internal/btree"
	"promips/internal/errs"
	"promips/internal/fsutil"
	"promips/internal/pager"
)

// meta is the gob-serialized in-memory state of an Index; the bulk data
// (projected entries, B+-tree nodes) already lives in the page files.
type meta struct {
	Cfg            Config
	M, N           int
	Centers        [][]float32
	Radii          []float64
	Epsilon        float64
	Stride         int64
	MaxDist        float64
	EntriesPerPage int
	LocPage        []int64
	LocSlot        []int32
	Layout         []uint32
}

// Save persists the index metadata next to its page files in dir. The meta
// file is written to a temp name and renamed over, so a crash mid-Save
// never truncates a previously saved (and possibly still referenced) meta
// file. Directory-entry durability is the caller's concern (core.Save
// fsyncs dir once after both meta renames).
func (idx *Index) Save(dir string) error { return idx.SaveFS(fsutil.OS, dir) }

// SaveFS is Save writing through an explicit filesystem seam, so the
// crash-injection harness can fault this meta write like any other.
func (idx *Index) SaveFS(fsys fsutil.FS, dir string) error {
	m := meta{
		Cfg: idx.cfg, M: idx.m, N: idx.n,
		Centers: idx.centers, Radii: idx.radii,
		Epsilon: idx.epsilon, Stride: idx.stride, MaxDist: idx.maxDist,
		EntriesPerPage: idx.entriesPerPage,
		LocPage:        idx.locPage, LocSlot: idx.locSlot, Layout: idx.layout,
	}
	err := fsutil.WriteAtomic(fsys, filepath.Join(dir, "idist.meta"), func(f fsutil.File) error {
		return gob.NewEncoder(f).Encode(&m)
	})
	if err != nil {
		return fmt.Errorf("idistance: save meta: %w", err)
	}
	return nil
}

// Open loads an index previously built in dir (Build followed by Save).
func Open(dir string) (*Index, error) {
	f, err := os.Open(filepath.Join(dir, "idist.meta"))
	if err != nil {
		return nil, fmt.Errorf("idistance: open meta: %w", err)
	}
	defer f.Close()
	var m meta
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("idistance: decode meta: %v: %w", err, errs.ErrCorruptIndex)
	}
	opts := pager.Options{PageSize: m.Cfg.PageSize, PoolSize: m.Cfg.PoolSize}
	data, err := pager.Open(filepath.Join(dir, "idist.data"), opts)
	if err != nil {
		return nil, err
	}
	btPg, err := pager.Open(filepath.Join(dir, "idist.btree"), opts)
	if err != nil {
		data.Close()
		return nil, err
	}
	tree, err := btree.Open(btPg)
	if err != nil {
		data.Close()
		btPg.Close()
		return nil, err
	}
	return &Index{
		cfg: m.Cfg, m: m.M, n: m.N,
		centers: m.Centers, radii: m.Radii,
		epsilon: m.Epsilon, stride: m.Stride, maxDist: m.MaxDist,
		data: data, btPg: btPg, tree: tree,
		entriesPerPage: m.EntriesPerPage,
		locPage:        m.LocPage, locSlot: m.LocSlot, layout: m.Layout,
	}, nil
}
