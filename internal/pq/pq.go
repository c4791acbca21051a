// Package pq implements the PQ-based baseline of the ProMIPS paper's
// experiments: the MIP problem is reduced to NN search with the QNF
// asymmetric transformation (as in H2-ALSH) and solved with a locally
// optimized product quantizer in the style of Kalantidis & Avrithis (CVPR
// 2014): a coarse quantizer with per-cell rotation matrices and inverted
// lists, per-subspace codebooks, and lookup-table-based asymmetric distance
// computation (ADC).
//
// Substitution note (see DESIGN.md §4): LOPQ learns its rotations by
// alternating optimization; we use seeded random orthonormal rotations
// (Householder products). The quantization error improvement of training is
// a constant factor, while the costs the paper's figures charge PQ with —
// storing one rotation matrix per cell (index size, Fig 4a), training time
// (Fig 4b), and reading rotations + inverted lists at query time (Fig 7) —
// are exercised identically.
package pq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"

	"promips/internal/kmeans"
	"promips/internal/pager"
	"promips/internal/store"
	"promips/internal/vec"
	"promips/mips"
)

// Config parameterizes the PQ index. Paper defaults: 16 subspaces, 256
// centroids per subspace, 16 probed cells.
type Config struct {
	Subspaces  int // M
	Centroids  int // per-subspace codebook size (≤ 256: codes are bytes)
	Cells      int // coarse cells; 0 = min(64, max(8, n/200))
	ProbeCells int // cells searched per query
	// Reflections is the number of Householder reflections composing each
	// cell's rotation (the materialized matrix is stored on disk
	// regardless, as LOPQ stores its trained rotations).
	Reflections int
	TrainSample int // max points for codebook training
	MaxIter     int // k-means iterations for codebooks
	// RerankFactor reranks the top RerankFactor·k ADC candidates with
	// exact inner products read from the original-vector store (default 5;
	// negative disables reranking). Untrained rotations quantize worse
	// than LOPQ's trained ones; the rerank restores the paper's quality
	// band while keeping the method's page-access profile high (see
	// DESIGN.md §4).
	RerankFactor int
	PageSize     int
	PoolSize     int
	Seed         int64
}

func (c *Config) normalize(n int) {
	if c.Subspaces <= 0 {
		c.Subspaces = 16
	}
	if c.Centroids <= 0 {
		c.Centroids = 256
	}
	if c.Centroids > 256 {
		c.Centroids = 256
	}
	if c.Cells <= 0 {
		c.Cells = n / 200
		if c.Cells < 8 {
			c.Cells = 8
		}
		if c.Cells > 64 {
			c.Cells = 64
		}
	}
	if c.ProbeCells <= 0 {
		c.ProbeCells = 16
	}
	if c.ProbeCells > c.Cells {
		c.ProbeCells = c.Cells
	}
	if c.Reflections <= 0 {
		c.Reflections = 8
	}
	if c.TrainSample <= 0 {
		c.TrainSample = 10000
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 10
	}
	if c.RerankFactor < 0 {
		c.RerankFactor = 0
	} else if c.RerankFactor == 0 {
		c.RerankFactor = 5
	}
	if c.PageSize <= 0 {
		c.PageSize = pager.DefaultPageSize
	}
}

// cellMeta locates one cell's on-disk structures.
type cellMeta struct {
	rotStart  int64 // first page of the rotation matrix
	listStart int64 // first page of the inverted list
	count     int   // points in the cell
	origStart int   // store position of the cell's first point
}

// Index is a built PQ index implementing mips.Method.
type Index struct {
	cfg    Config
	d, n   int
	padded int     // D: d+1 padded to a multiple of Subspaces
	lambda float64 // global QNF scale (max norm)
	subDim int

	cellCents [][]float32   // coarse centroids (in transformed space)
	codebooks [][][]float32 // [subspace][centroid] -> subDim vector
	cells     []cellMeta

	rotPg  *pager.Pager // per-cell rotation matrices
	listPg *pager.Pager // inverted lists: entries (id uint32 + M codes)
	orig   *store.Store // original vectors in cell order, for reranking

	rotRowsPerPage int
	entrySize      int
	entriesPerPage int
}

var _ mips.Method = (*Index)(nil)

// qnfTransform maps o into the padded transformed space:
// [o/λ ; sqrt(1−‖o‖²/λ²) ; 0...].
func qnfTransform(o []float32, norm, lambda float64, padded int) []float32 {
	t := make([]float32, padded)
	if lambda == 0 {
		return t
	}
	for j, v := range o {
		t[j] = float32(float64(v) / lambda)
	}
	rest := 1 - (norm*norm)/(lambda*lambda)
	if rest < 0 {
		rest = 0
	}
	t[len(o)] = float32(math.Sqrt(rest))
	return t
}

// householders generates the unit reflection vectors for one cell.
func householders(r *rand.Rand, count, dim int) [][]float64 {
	vs := make([][]float64, count)
	for i := range vs {
		v := make([]float64, dim)
		var nrm float64
		for j := range v {
			v[j] = r.NormFloat64()
			nrm += v[j] * v[j]
		}
		nrm = math.Sqrt(nrm)
		for j := range v {
			v[j] /= nrm
		}
		vs[i] = v
	}
	return vs
}

// applyHouseholders rotates x in place: x ← H_T···H_1 x.
func applyHouseholders(vs [][]float64, x []float64) {
	for _, v := range vs {
		var dot float64
		for j := range x {
			dot += v[j] * x[j]
		}
		dot *= 2
		for j := range x {
			x[j] -= dot * v[j]
		}
	}
}

// Build constructs the index over data in dir.
func Build(data [][]float32, dir string, cfg Config) (*Index, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("pq: empty dataset")
	}
	cfg.normalize(n)
	d := len(data[0])
	padded := ((d + 1 + cfg.Subspaces - 1) / cfg.Subspaces) * cfg.Subspaces
	subDim := padded / cfg.Subspaces

	// QNF reduction with the global maximum norm.
	norms := make([]float64, n)
	var lambda float64
	for i, o := range data {
		norms[i] = vec.Norm2(o)
		if norms[i] > lambda {
			lambda = norms[i]
		}
	}
	transformed := make([][]float32, n)
	for i, o := range data {
		transformed[i] = qnfTransform(o, norms[i], lambda, padded)
	}

	// Coarse quantizer.
	coarse := kmeans.Run(transformed, kmeans.Config{K: cfg.Cells, Seed: cfg.Seed, MaxIter: 15})
	cells := len(coarse.Centroids)

	ix := &Index{
		cfg: cfg, d: d, n: n, padded: padded, lambda: lambda, subDim: subDim,
		cellCents: coarse.Centroids,
		cells:     make([]cellMeta, cells),
		entrySize: 4 + cfg.Subspaces,
	}
	ix.entriesPerPage = cfg.PageSize / ix.entrySize
	ix.rotRowsPerPage = cfg.PageSize / (4 * padded)
	if ix.rotRowsPerPage == 0 {
		return nil, fmt.Errorf("pq: rotation row of dim %d exceeds page size %d", padded, cfg.PageSize)
	}
	if ix.entriesPerPage == 0 {
		return nil, fmt.Errorf("pq: list entry exceeds page size")
	}

	// Per-cell rotations (Householder form for fast application during
	// encoding; materialized matrices on disk as the queried structure).
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	cellHH := make([][][]float64, cells)
	for c := range cellHH {
		cellHH[c] = householders(rng, cfg.Reflections, padded)
	}

	// Deferred Close abandons a file unless Finish has run.
	rotW, err := pager.Create(filepath.Join(dir, "pq.rot"), cfg.PageSize)
	if err != nil {
		return nil, err
	}
	defer rotW.Close()
	listW, err := pager.Create(filepath.Join(dir, "pq.lists"), cfg.PageSize)
	if err != nil {
		return nil, err
	}
	defer listW.Close()
	for c := 0; c < cells; c++ {
		start, err := ix.writeRotation(rotW, cellHH[c])
		if err != nil {
			return nil, err
		}
		ix.cells[c].rotStart = start
	}

	// Rotated residuals.
	rotres := make([][]float32, n)
	tmp := make([]float64, padded)
	for i, t := range transformed {
		c := coarse.Assign[i]
		cent := coarse.Centroids[c]
		for j := range tmp {
			tmp[j] = float64(t[j]) - float64(cent[j])
		}
		applyHouseholders(cellHH[c], tmp)
		rr := make([]float32, padded)
		for j, v := range tmp {
			rr[j] = float32(v)
		}
		rotres[i] = rr
	}

	// Per-subspace codebooks trained on a sample of rotated residuals.
	sampleIdx := rng.Perm(n)
	if len(sampleIdx) > cfg.TrainSample {
		sampleIdx = sampleIdx[:cfg.TrainSample]
	}
	ix.codebooks = make([][][]float32, cfg.Subspaces)
	codes := make([][]byte, n)
	for i := range codes {
		codes[i] = make([]byte, cfg.Subspaces)
	}
	for s := 0; s < cfg.Subspaces; s++ {
		lo := s * subDim
		sample := make([][]float32, len(sampleIdx))
		for i, si := range sampleIdx {
			sample[i] = rotres[si][lo : lo+subDim]
		}
		res := kmeans.Run(sample, kmeans.Config{K: cfg.Centroids, Seed: cfg.Seed + int64(s) + 7, MaxIter: cfg.MaxIter})
		ix.codebooks[s] = res.Centroids
		// Encode every point against this codebook.
		dist := make([]float64, len(res.Centroids))
		for i := 0; i < n; i++ {
			vec.L2DistSqEach(res.Centroids, rotres[i][lo:lo+subDim], dist)
			best, bestD := 0, math.Inf(1)
			for ci, dd := range dist {
				if dd < bestD {
					best, bestD = ci, dd
				}
			}
			codes[i][s] = byte(best)
		}
	}

	// Inverted lists: per cell, contiguous pages of (id, codes).
	members := make([][]uint32, cells)
	for i := 0; i < n; i++ {
		c := coarse.Assign[i]
		members[c] = append(members[c], uint32(i))
	}
	page := make([]byte, cfg.PageSize)
	origStart := 0
	for c := 0; c < cells; c++ {
		ix.cells[c].count = len(members[c])
		ix.cells[c].origStart = origStart
		origStart += len(members[c])
		if len(members[c]) == 0 {
			ix.cells[c].listStart = -1
			continue
		}
		first := int64(-1)
		slot := 0
		var cur int64 = -1
		flush := func() error {
			if cur < 0 {
				return nil
			}
			return listW.Write(cur, page)
		}
		for _, id := range members[c] {
			if cur < 0 || slot == ix.entriesPerPage {
				if err := flush(); err != nil {
					return nil, err
				}
				cur, slot = listW.Alloc(), 0
				if first < 0 {
					first = cur
				}
				clear(page)
			}
			off := slot * ix.entrySize
			binary.LittleEndian.PutUint32(page[off:], id)
			copy(page[off+4:], codes[id])
			slot++
		}
		if err := flush(); err != nil {
			return nil, err
		}
		ix.cells[c].listStart = first
	}
	opts := pager.Options{PageSize: cfg.PageSize, PoolSize: cfg.PoolSize}
	if ix.rotPg, err = rotW.Finish(opts); err != nil {
		return nil, err
	}
	if ix.listPg, err = listW.Finish(opts); err != nil {
		ix.rotPg.Close()
		return nil, err
	}

	// Original vectors in cell order, read only by the rerank pass.
	if cfg.RerankFactor > 0 {
		w, err := store.Create(filepath.Join(dir, "pq.orig"), d, n, opts)
		if err != nil {
			ix.Close()
			return nil, err
		}
		for c := 0; c < cells; c++ {
			for _, id := range members[c] {
				if err := w.Append(data[id]); err != nil {
					ix.Close()
					return nil, err
				}
			}
		}
		st, err := w.Finalize()
		if err != nil {
			ix.Close()
			return nil, err
		}
		ix.orig = st
	}
	return ix, nil
}

// writeRotation materializes the Householder product as a D×D row-major
// matrix on fresh pages (rotRowsPerPage rows per page) and returns the
// first page id.
func (ix *Index) writeRotation(w *pager.Writer, vs [][]float64) (int64, error) {
	D := ix.padded
	// Row i of R is (H_T···H_1)ᵀ applied to eᵢ... we need R x, stored by
	// rows: R[i][j]. Build R by rotating each basis vector: column j of R
	// is H(e_j); equivalently R[i][j] = (H e_j)[i]. Materialize columns
	// then transpose into rows.
	cols := make([][]float64, D)
	tmp := make([]float64, D)
	for j := 0; j < D; j++ {
		for i := range tmp {
			tmp[i] = 0
		}
		tmp[j] = 1
		applyHouseholders(vs, tmp)
		col := make([]float64, D)
		copy(col, tmp)
		cols[j] = col
	}
	first := int64(-1)
	page := make([]byte, ix.cfg.PageSize)
	var cur int64 = -1
	rowInPage := 0
	flush := func() error {
		if cur < 0 {
			return nil
		}
		return w.Write(cur, page)
	}
	for i := 0; i < D; i++ {
		if cur < 0 || rowInPage == ix.rotRowsPerPage {
			if err := flush(); err != nil {
				return 0, err
			}
			cur, rowInPage = w.Alloc(), 0
			if first < 0 {
				first = cur
			}
			clear(page)
		}
		off := rowInPage * 4 * D
		for j := 0; j < D; j++ {
			binary.LittleEndian.PutUint32(page[off+4*j:], math.Float32bits(float32(cols[j][i])))
		}
		rowInPage++
	}
	return first, flush()
}

// readRotateResidual reads cell c's rotation matrix from disk, in one read
// of its pages, and returns R·(x − centroid_c). pages and buf are the
// read's scratch, returned for reuse; the page reads are recorded in io.
func (ix *Index) readRotateResidual(c int, x []float32, pages [][]byte, buf []byte, io *pager.IOStats) ([]float32, [][]byte, []byte, error) {
	D := ix.padded
	res := make([]float64, D)
	cent := ix.cellCents[c]
	for j := 0; j < D; j++ {
		res[j] = float64(x[j]) - float64(cent[j])
	}
	out := make([]float32, D)
	pages, buf, err := ix.rotPg.Read(ix.cells[c].rotStart, (D+ix.rotRowsPerPage-1)/ix.rotRowsPerPage, pages[:0], buf, io)
	if err != nil {
		return nil, pages, buf, err
	}
	rowsDone := 0
	for _, page := range pages {
		rows := ix.rotRowsPerPage
		if D-rowsDone < rows {
			rows = D - rowsDone
		}
		for r := 0; r < rows; r++ {
			off := r * 4 * D
			var s float64
			for j := 0; j < D; j++ {
				s += float64(math.Float32frombits(binary.LittleEndian.Uint32(page[off+4*j:]))) * res[j]
			}
			out[rowsDone+r] = float32(s)
		}
		rowsDone += rows
	}
	return out, pages, buf, nil
}

// Name implements mips.Method.
func (ix *Index) Name() string { return "PQ-Based" }

// Cells returns the number of coarse cells.
func (ix *Index) Cells() int { return len(ix.cells) }

// IndexSizeBytes counts rotation matrices, inverted lists (with codes),
// coarse centroids and codebooks — the "many local rotation matrices and
// cells" the paper charges PQ's index size with.
func (ix *Index) IndexSizeBytes() int64 {
	cents := int64(len(ix.cellCents)) * int64(ix.padded) * 4
	books := int64(ix.cfg.Subspaces) * int64(ix.cfg.Centroids) * int64(ix.subDim) * 4
	return ix.rotPg.SizeBytes() + ix.listPg.SizeBytes() + cents + books
}

// Search implements mips.Method: probe the nearest coarse cells, scanning
// their inverted lists with LUT-based ADC; returned IPs are the ADC
// approximations mapped back through the QNF identity
// ⟨o,q⟩ = λ‖q‖(1 − dis²/2).
func (ix *Index) Search(q []float32, k int) ([]mips.Result, mips.QueryStats, error) {
	if len(q) != ix.d {
		return nil, mips.QueryStats{}, fmt.Errorf("pq: query dim %d, want %d", len(q), ix.d)
	}
	if k <= 0 {
		return nil, mips.QueryStats{}, fmt.Errorf("pq: k must be positive")
	}
	if k > ix.n {
		k = ix.n
	}
	var io pager.IOStats
	var qs mips.QueryStats

	normQ := vec.Norm2(q)
	if normQ == 0 {
		out := make([]mips.Result, k)
		for i := range out {
			out[i] = mips.Result{ID: uint32(i), IP: 0}
		}
		return out, qs, nil
	}
	// Query-side QNF: [q/‖q‖ ; 0 ; pad].
	qt := make([]float32, ix.padded)
	for j, v := range q {
		qt[j] = float32(float64(v) / normQ)
	}

	// Rank cells by distance to the transformed query.
	type cellDist struct {
		c int
		d float64
	}
	cd := make([]cellDist, len(ix.cellCents))
	for c, cent := range ix.cellCents {
		cd[c] = cellDist{c: c, d: vec.L2DistSq(qt, cent)}
	}
	sort.Slice(cd, func(a, b int) bool { return cd[a].d < cd[b].d })

	// Shortlist size: k for pure ADC, RerankFactor·k when reranking.
	short := k
	if ix.orig != nil && ix.cfg.RerankFactor > 0 {
		short = ix.cfg.RerankFactor * k
		if short > ix.n {
			short = ix.n
		}
	}
	type scored struct {
		id  uint32
		pos int // store position, read by the rerank
		dSq float64
	}
	var best []scored
	worst := math.Inf(1)
	offer := func(e scored) {
		if len(best) == short && e.dSq >= worst {
			return
		}
		at := sort.Search(len(best), func(i int) bool { return best[i].dSq > e.dSq })
		best = append(best, scored{})
		copy(best[at+1:], best[at:])
		best[at] = e
		if len(best) > short {
			best = best[:short]
		}
		if len(best) == short {
			worst = best[short-1].dSq
		}
	}

	lut := make([][]float64, ix.cfg.Subspaces)
	for s := range lut {
		lut[s] = make([]float64, len(ix.codebooks[s]))
	}
	probe := ix.cfg.ProbeCells
	var pages [][]byte
	var buf []byte
	for pi := 0; pi < probe && pi < len(cd); pi++ {
		c := cd[pi].c
		meta := ix.cells[c]
		if meta.count == 0 {
			continue
		}
		var rq []float32
		var err error
		if rq, pages, buf, err = ix.readRotateResidual(c, qt, pages, buf, &io); err != nil {
			return nil, qs, err
		}
		for s := 0; s < ix.cfg.Subspaces; s++ {
			lo := s * ix.subDim
			vec.L2DistSqEach(ix.codebooks[s], rq[lo:lo+ix.subDim], lut[s])
		}
		if pages, buf, err = ix.listPg.Read(meta.listStart, (meta.count+ix.entriesPerPage-1)/ix.entriesPerPage, pages[:0], buf, &io); err != nil {
			return nil, qs, err
		}
		remaining := meta.count
		for _, page := range pages {
			inPage := ix.entriesPerPage
			if remaining < inPage {
				inPage = remaining
			}
			for e := 0; e < inPage; e++ {
				off := e * ix.entrySize
				id := binary.LittleEndian.Uint32(page[off:])
				var dSq float64
				for s := 0; s < ix.cfg.Subspaces; s++ {
					dSq += lut[s][page[off+4+s]]
				}
				qs.Candidates++
				offer(scored{id: id, pos: meta.origStart + meta.count - remaining + e, dSq: dSq})
			}
			remaining -= inPage
		}
	}

	var out []mips.Result
	if ix.orig != nil {
		// Rerank the ADC shortlist with exact inner products.
		v := make([]float32, ix.d)
		top := mips.NewTopK(k)
		for _, b := range best {
			o, err := ix.orig.VectorAt(b.pos, v, &io)
			if err != nil {
				return nil, qs, err
			}
			top.Offer(b.id, vec.Dot(o, q))
		}
		out = append([]mips.Result(nil), top.Results()...)
	} else {
		out = make([]mips.Result, len(best))
		for i, b := range best {
			out[i] = mips.Result{ID: b.id, IP: ix.lambda * normQ * (1 - b.dSq/2)}
		}
	}
	qs.PageAccesses = io.Pages()
	return out, qs, nil
}

// Close releases the page files.
func (ix *Index) Close() error {
	err := ix.rotPg.Close()
	if e := ix.listPg.Close(); err == nil {
		err = e
	}
	if ix.orig != nil {
		if e := ix.orig.Close(); err == nil {
			err = e
		}
	}
	return err
}
