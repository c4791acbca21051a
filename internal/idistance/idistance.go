// Package idistance implements the iDistance index (Jagadish et al., TODS
// 2005) with the new partition pattern of the ProMIPS paper (§VI):
//
//  1. the projected space is divided into kp k-means partitions with
//     reference points O₁..O_kp;
//  2. each partition is sliced into rings of width ε around its reference
//     point; a point's ring key is I(p) = ⌊i·C + dis(p,Oi)/ε⌋;
//  3. the points of each ring are further clustered into ksp
//     sub-partitions (pivot + radius), stored contiguously on disk pages,
//     so a range query can skip whole sub-partitions whose sphere does not
//     intersect the query sphere and read the surviving ones sequentially.
//
// The only index structure is the ring directory: the rings sorted by key,
// each with its sub-partition directory — the "lightweight index" the paper
// contrasts with multi-table LSH. The paper keeps it in a disk-resident
// B+-tree; here it is a few hundred entries, persisted in idist.meta and
// held in memory, so a query's Page Access count covers the projected-data
// pages (and, above this package, the store pages) but no index-node pages —
// a stated departure from the paper's accounting.
package idistance

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"

	"promips/internal/errs"
	"promips/internal/kmeans"
	"promips/internal/pager"
	"promips/internal/vec"
)

// Config controls index construction. The defaults mirror the paper's
// §VIII-A-4 settings.
type Config struct {
	Kp       int     // number of top-level partitions (paper default 5)
	Nkey     int     // target rings per partition (paper default 40)
	Ksp      int     // sub-partitions per ring (paper default 10)
	Epsilon  float64 // ring width; 0 = r_avg/Nkey from the first-stage clustering
	Seed     int64
	PageSize int
	PoolSize int
}

func (c *Config) normalize() {
	if c.Kp <= 0 {
		c.Kp = 5
	}
	if c.Nkey <= 0 {
		c.Nkey = 40
	}
	if c.Ksp <= 0 {
		c.Ksp = 10
	}
	if c.PageSize <= 0 {
		c.PageSize = pager.DefaultPageSize
	}
}

// subPartition is one sphere of points stored contiguously on data pages.
// Sub-partitions — and the rings containing them — are packed back to back
// in directory order with no alignment slack (neighbouring sub-partitions
// share boundary pages), so the entry at layout position pos sits on page
// pos/entriesPerPage at slot pos%entriesPerPage. Dense packing keeps the
// data file at its information-theoretic page count, which the Page Access
// metric rewards directly: a ring-aligned layout was measured at 5× the
// pages for the same entries.
//
// startPos is the layout position of the first entry: the running count of
// the points in the sub-partitions before it, derived by Build and Open.
type subPartition struct {
	center    []float32
	radius    float64
	startPos  int
	numPoints int
}

// ring is one entry of the ring directory: a ring key and the non-empty
// sub-partitions of the ring's points, in disk order.
type ring struct {
	key  int64
	subs []subPartition
}

// Index is a built iDistance index over n m-dimensional points.
type Index struct {
	cfg     Config
	m, n    int
	centers [][]float32
	radii   []float64
	epsilon float64
	stride  int64 // C in I(p) = ⌊i·C + dis(p,Oi)/ε⌋

	data  *pager.Pager
	rings []ring // ascending by key

	entriesPerPage int
	layout         []uint32 // layout position -> id
}

// Candidate is a point reported by a range or incremental search, with its
// Euclidean distance to the query in the projected space. Pos is the
// point's layout position (Layout()[Pos] == ID): its row in every array the
// layers above keep in layout order, and its slot in the vector store. It
// sits in what would otherwise be padding, so a Candidate is 16 bytes.
type Candidate struct {
	ID   uint32
	Pos  uint32
	Dist float64
}

// Build constructs the index over the projected points in dir. Point i's id
// is uint32(i). ctx is tested after the first-stage clustering and before
// every ring; once it is done Build abandons its page file and returns
// ctx.Err().
func Build(ctx context.Context, projected [][]float32, dir string, cfg Config) (*Index, error) {
	cfg.normalize()
	n := len(projected)
	if n == 0 {
		return nil, fmt.Errorf("idistance: %w: no points to index", errs.ErrEmptyIndex)
	}
	m := len(projected[0])
	entrySize := 4 + vec.EncodedSize(m)
	if entrySize > cfg.PageSize {
		return nil, fmt.Errorf("idistance: entry of %d bytes exceeds page size %d", entrySize, cfg.PageSize)
	}

	// Stage 1: kp-means over the projected points.
	res := kmeans.Run(projected, kmeans.Config{K: cfg.Kp, Seed: cfg.Seed})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kp := len(res.Centroids)

	// Ring width ε from the average first-stage radius (§VI).
	eps := cfg.Epsilon
	if eps <= 0 {
		var avg float64
		for _, r := range res.Radii {
			avg += r
		}
		avg /= float64(kp)
		eps = avg / float64(cfg.Nkey)
		if eps <= 0 {
			eps = 1 // degenerate data (all points identical)
		}
	}

	// Ring assignment and the key stride C (large enough that partitions
	// never share keys).
	ringOf := make([]int, n)
	maxRing := 0
	for i, p := range projected {
		r := int(vec.L2Dist(p, res.Centroids[res.Assign[i]]) / eps)
		ringOf[i] = r
		if r > maxRing {
			maxRing = r
		}
	}
	stride := int64(maxRing + 2)

	// Group ids by (partition, ring).
	rings := make(map[int64][]uint32)
	for i := 0; i < n; i++ {
		key := int64(res.Assign[i])*stride + int64(ringOf[i])
		rings[key] = append(rings[key], uint32(i))
	}
	keys := make([]int64, 0, len(rings))
	for k := range rings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	dataW, err := pager.Create(filepath.Join(dir, "idist.data"), cfg.PageSize)
	if err != nil {
		return nil, err
	}
	// A file still being written is abandoned on every exit (Close does
	// nothing once Finish has run).
	defer dataW.Close()
	idx := &Index{
		cfg: cfg, m: m, n: n,
		centers: res.Centroids, radii: res.Radii,
		epsilon: eps, stride: stride,
		rings:          make([]ring, len(keys)),
		entriesPerPage: cfg.PageSize / entrySize,
		layout:         make([]uint32, 0, n),
	}

	// Stage 2: per-ring ksp-means, contiguous page layout, ring directory
	// entry. One ring writer spans all rings: each ring continues on the
	// page the previous one ended on, so the file carries no per-ring
	// alignment slack.
	rw := &ringWriter{idx: idx, w: dataW, page: make([]byte, cfg.PageSize), cur: -1}
	for ki, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ids := rings[key]
		pts := make([][]float32, len(ids))
		for j, id := range ids {
			pts[j] = projected[id]
		}
		sres := kmeans.Run(pts, kmeans.Config{K: cfg.Ksp, Seed: cfg.Seed + key})
		// Collect member ids per sub-partition in stable order.
		members := make([][]uint32, len(sres.Centroids))
		for j, id := range ids {
			s := sres.Assign[j]
			members[s] = append(members[s], id)
		}
		// Pack the ring's non-empty sub-partitions back to back.
		rg := ring{key: key}
		for s, ms := range members {
			if len(ms) == 0 {
				continue
			}
			pos := len(idx.layout)
			if err := rw.writeSub(ms, projected); err != nil {
				return nil, err
			}
			rg.subs = append(rg.subs, subPartition{center: sres.Centroids[s], radius: sres.Radii[s],
				startPos: pos, numPoints: len(ms)})
		}
		if err := rw.flush(); err != nil {
			return nil, err
		}
		idx.rings[ki] = rg
	}

	// The data file is durable before anything reads it.
	if idx.data, err = dataW.Finish(pager.Options{PageSize: cfg.PageSize, PoolSize: cfg.PoolSize}); err != nil {
		return nil, err
	}
	return idx, nil
}

// ringWriter packs one ring's sub-partition entries onto contiguous pages.
type ringWriter struct {
	idx  *Index
	w    *pager.Writer
	page []byte
	cur  int64
	slot int
}

// writeSub appends one sub-partition's entries at the next layout positions.
func (rw *ringWriter) writeSub(ids []uint32, projected [][]float32) error {
	idx := rw.idx
	entrySize := 4 + vec.EncodedSize(idx.m)
	for _, id := range ids {
		if rw.cur < 0 || rw.slot == idx.entriesPerPage {
			if err := rw.flush(); err != nil {
				return err
			}
			rw.cur, rw.slot = rw.w.Alloc(), 0
			clear(rw.page)
		}
		off := rw.slot * entrySize
		binary.LittleEndian.PutUint32(rw.page[off:], id)
		vec.Encode(rw.page[off+4:], projected[id])
		idx.layout = append(idx.layout, id)
		rw.slot++
	}
	return nil
}

// flush writes the current partially filled page, keeping it current so
// the next sub-partition continues on the same page.
func (rw *ringWriter) flush() error {
	if rw.cur < 0 {
		return nil
	}
	return rw.w.Write(rw.cur, rw.page)
}

// Close releases the projected-data page file.
func (idx *Index) Close() error { return idx.data.Close() }

// M returns the projected dimensionality.
func (idx *Index) M() int { return idx.m }

// Len returns the number of indexed points.
func (idx *Index) Len() int { return idx.n }

// Epsilon returns the ring width in use.
func (idx *Index) Epsilon() float64 { return idx.epsilon }

// Layout returns point ids in on-disk order (sub-partition by
// sub-partition). The original-vector store is laid out in this order so
// that verification I/O is sequential, as §VI prescribes.
func (idx *Index) Layout() []uint32 { return idx.layout }

// RingDirBytes returns the encoded size of the ring directory (the index
// proper): every ring's key and sub-partition directory.
func (idx *Index) RingDirBytes() int64 {
	var n int64
	for _, rg := range idx.rings {
		n += 8 + 4 + int64(len(rg.subs)*subSize(idx.m))
	}
	return n
}

// DataSizeBytes returns the on-disk size of the projected-point pages.
func (idx *Index) DataSizeBytes() int64 { return idx.data.SizeBytes() }

// Pagers returns the pagers touched by searches, for I/O accounting.
func (idx *Index) Pagers() []*pager.Pager { return []*pager.Pager{idx.data} }

// Projected reads the projected vector at layout position pos from its data
// page (the single fetch Quick-Probe performs to turn the located point into
// a search radius). The page read is recorded in io (nil discards the
// accounting).
func (idx *Index) Projected(pos int, dst []float32, io *pager.IOStats) ([]float32, error) {
	if pos < 0 || pos >= idx.n {
		return nil, fmt.Errorf("idistance: layout position %d outside %d points", pos, idx.n)
	}
	sc := scanScratchPool.Get().(*scanScratch)
	defer sc.release()
	var err error
	if sc.pages, sc.buf, err = idx.data.Read(int64(pos/idx.entriesPerPage), 1, sc.pages[:0], sc.buf, io); err != nil {
		return nil, err
	}
	off := pos % idx.entriesPerPage * (4 + vec.EncodedSize(idx.m))
	return vec.Decode(sc.pages[0][off+4:], idx.m, dst), nil
}
