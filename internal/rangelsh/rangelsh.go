// Package rangelsh implements the Norm-Ranging LSH baseline (Yan et al.,
// NeurIPS 2018). The dataset is split by norm rank into equal-size
// sub-datasets; each sub-dataset applies the Simple-LSH transformation with
// its own local maximum norm U_j,
//
//	o ↦ [o/U_j ; sqrt(1 − ‖o‖²/U_j²)]   (exactly unit norm)
//
// and hashes the result with SimHash sign codes. Because ⟨o,q⟩ =
// U_j‖q‖·cos θ(o', q̃), a bucket's Hamming distance to the query code
// estimates the angle and U_j scales it back to an inner product, which is
// what the single-table multi-probe strategy ranks buckets by across all
// sub-datasets. Points of one bucket are stored contiguously on disk (each
// sub-dataset sequential in descending norm, as the ProMIPS paper's
// experimental setup describes), so probing a bucket is a sequential scan.
package rangelsh

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"sort"

	"promips/internal/pager"
	"promips/internal/store"
	"promips/internal/vec"
	"promips/mips"
)

// Config parameterizes a Range-LSH index.
type Config struct {
	// Partitions is the number of norm-rank sub-datasets (paper: 32).
	Partitions int
	// CodeLength is the SimHash code length in bits (paper: 16; max 32).
	CodeLength int
	// MaxCandidatesFrac bounds verified candidates as a fraction of n
	// (default 0.1): the multi-probe loop stops after this budget even if
	// bucket bounds still look promising.
	MaxCandidatesFrac float64
	// HammingSlack loosens the bucket upper bound by this many bits when
	// deciding termination, compensating for SimHash's angle-estimation
	// variance (default 2).
	HammingSlack int
	PageSize     int
	PoolSize     int
	Seed         int64
}

func (c *Config) normalize() {
	if c.Partitions <= 0 {
		c.Partitions = 32
	}
	if c.CodeLength <= 0 {
		c.CodeLength = 16
	}
	if c.CodeLength > 32 {
		c.CodeLength = 32
	}
	if c.MaxCandidatesFrac <= 0 {
		c.MaxCandidatesFrac = 0.3
	}
	if c.HammingSlack == 0 {
		c.HammingSlack = 4
	}
	if c.PageSize <= 0 {
		c.PageSize = pager.DefaultPageSize
	}
}

// bucket is one (sub-dataset, code) group laid out contiguously in the
// vector store.
type bucket struct {
	sub      int
	code     uint32
	startPos int
	count    int
}

// Index is a built Range-LSH index implementing mips.Method.
type Index struct {
	cfg     Config
	d, n    int
	subMax  []float64   // U_j per sub-dataset
	hyper   [][]float32 // CodeLength × (d+1) SimHash hyperplanes
	buckets []bucket
	orig    *store.Store
	order   []uint32 // store position → global id
}

var _ mips.Method = (*Index)(nil)

// Build constructs the index over data in dir.
func Build(data [][]float32, dir string, cfg Config) (*Index, error) {
	cfg.normalize()
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("rangelsh: empty dataset")
	}
	d := len(data[0])
	if cfg.Partitions > n {
		cfg.Partitions = n
	}

	norms := make([]float64, n)
	order := make([]uint32, n)
	for i, o := range data {
		norms[i] = vec.Norm2(o)
		order[i] = uint32(i)
	}
	sort.Slice(order, func(a, b int) bool { return norms[order[a]] > norms[order[b]] })

	// Equal-count norm-rank partitions (descending norm).
	per := (n + cfg.Partitions - 1) / cfg.Partitions
	subOf := make([]int, n)
	subMax := make([]float64, 0, cfg.Partitions)
	for s := 0; s*per < n; s++ {
		lo := s * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		subMax = append(subMax, norms[order[lo]])
		for _, id := range order[lo:hi] {
			subOf[id] = s
		}
	}

	// Shared SimHash hyperplanes over the (d+1)-dimensional transform.
	r := rand.New(rand.NewSource(cfg.Seed))
	hyper := make([][]float32, cfg.CodeLength)
	for i := range hyper {
		h := make([]float32, d+1)
		for j := range h {
			h[j] = float32(r.NormFloat64())
		}
		hyper[i] = h
	}

	// Per-point codes on the locally transformed vectors.
	codes := make([]uint32, n)
	tbuf := make([]float32, d+1)
	for i, o := range data {
		u := subMax[subOf[i]]
		simpleLSHTransform(o, norms[i], u, tbuf)
		codes[i] = simHash(hyper, tbuf)
	}

	// Bucket layout: group ids by (sub, code); each sub-dataset stays
	// sequential in descending norm order.
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if subOf[ia] != subOf[ib] {
			return subOf[ia] < subOf[ib]
		}
		return codes[ia] < codes[ib]
	})
	w, err := store.Create(filepath.Join(dir, "rangelsh.orig"), d, n,
		pager.Options{PageSize: cfg.PageSize, PoolSize: cfg.PoolSize})
	if err != nil {
		return nil, err
	}
	var buckets []bucket
	for pos, id := range order {
		if err := w.Append(data[id]); err != nil {
			return nil, err
		}
		s, c := subOf[id], codes[id]
		if len(buckets) == 0 || buckets[len(buckets)-1].sub != s || buckets[len(buckets)-1].code != c {
			buckets = append(buckets, bucket{sub: s, code: c, startPos: pos})
		}
		buckets[len(buckets)-1].count++
	}
	st, err := w.Finalize()
	if err != nil {
		return nil, err
	}
	return &Index{cfg: cfg, d: d, n: n, subMax: subMax, hyper: hyper, buckets: buckets, orig: st, order: order}, nil
}

// simpleLSHTransform writes [o/u ; sqrt(1−‖o‖²/u²)] into dst (len d+1).
func simpleLSHTransform(o []float32, norm, u float64, dst []float32) {
	if u == 0 {
		for j := range dst {
			dst[j] = 0
		}
		dst[len(dst)-1] = 1
		return
	}
	for j, v := range o {
		dst[j] = float32(float64(v) / u)
	}
	rest := 1 - (norm*norm)/(u*u)
	if rest < 0 {
		rest = 0
	}
	dst[len(o)] = float32(math.Sqrt(rest))
}

func simHash(hyper [][]float32, x []float32) uint32 {
	var c uint32
	for i, h := range hyper {
		var s float64
		for j, v := range h {
			s += float64(v) * float64(x[j])
		}
		if s >= 0 {
			c |= 1 << uint(i)
		}
	}
	return c
}

// Name implements mips.Method.
func (ix *Index) Name() string { return "Range-LSH" }

// IndexSizeBytes counts the per-point codes, the bucket directory, the
// hyperplanes and the sub-dataset norms.
func (ix *Index) IndexSizeBytes() int64 {
	codeBytes := int64(ix.n) * int64((ix.cfg.CodeLength+7)/8)
	dirBytes := int64(len(ix.buckets)) * 20
	hyperBytes := int64(ix.cfg.CodeLength) * int64(ix.d+1) * 4
	return codeBytes + dirBytes + hyperBytes + int64(len(ix.subMax))*8
}

// Buckets returns the number of non-empty buckets.
func (ix *Index) Buckets() int { return len(ix.buckets) }

// Search implements mips.Method: single-table multi-probe over all
// (sub-dataset, bucket) pairs ranked by their estimated inner-product
// upper bound.
func (ix *Index) Search(q []float32, k int) ([]mips.Result, mips.QueryStats, error) {
	if len(q) != ix.d {
		return nil, mips.QueryStats{}, fmt.Errorf("rangelsh: query dim %d, want %d", len(q), ix.d)
	}
	if k <= 0 {
		return nil, mips.QueryStats{}, fmt.Errorf("rangelsh: k must be positive")
	}
	if k > ix.n {
		k = ix.n
	}
	var io pager.IOStats
	var qs mips.QueryStats

	normQ := vec.Norm2(q)
	top := mips.NewTopK(k)
	if normQ == 0 {
		for id := uint32(0); int(id) < k; id++ {
			top.Offer(id, 0)
		}
		return append([]mips.Result(nil), top.Results()...), qs, nil
	}

	// Query transform [q/‖q‖;0] and its code (identical for all subs).
	qt := make([]float32, ix.d+1)
	for j, v := range q {
		qt[j] = float32(float64(v) / normQ)
	}
	codeQ := simHash(ix.hyper, qt)

	// Rank buckets by estimated bound U_j·‖q‖·cos(π·ham/L).
	L := float64(ix.cfg.CodeLength)
	type ranked struct {
		score float64
		bound float64 // slack-loosened bound used for termination
		bi    int
	}
	rankedBuckets := make([]ranked, len(ix.buckets))
	for i, b := range ix.buckets {
		ham := float64(bits.OnesCount32(b.code ^ codeQ))
		score := ix.subMax[b.sub] * normQ * math.Cos(math.Pi*ham/L)
		hs := ham - float64(ix.cfg.HammingSlack)
		if hs < 0 {
			hs = 0
		}
		bound := ix.subMax[b.sub] * normQ * math.Cos(math.Pi*hs/L)
		rankedBuckets[i] = ranked{score: score, bound: bound, bi: i}
	}
	sort.Slice(rankedBuckets, func(a, b int) bool { return rankedBuckets[a].score > rankedBuckets[b].score })

	budget := int(ix.cfg.MaxCandidatesFrac * float64(ix.n))
	if budget < 10*k {
		budget = 10 * k
	}
	o := make([]float32, ix.d)
	var buf []byte
	var rows [][]byte
	for _, rb := range rankedBuckets {
		kth, full := top.Kth()
		if full && rb.bound <= kth {
			break // no remaining bucket can plausibly improve top-k
		}
		if qs.Candidates >= budget {
			break
		}
		b := ix.buckets[rb.bi]
		var err error
		if buf, rows, err = ix.orig.RowsAt(b.startPos, b.count, buf, rows, &io); err != nil {
			return nil, qs, err
		}
		for i, row := range rows {
			o = vec.Decode(row, ix.d, o)
			qs.Candidates++
			top.Offer(ix.order[b.startPos+i], vec.Dot(o, q))
		}
	}

	qs.PageAccesses = io.Pages()
	return append([]mips.Result(nil), top.Results()...), qs, nil
}

// Close releases the page file.
func (ix *Index) Close() error { return ix.orig.Close() }
