package idistance

import (
	"cmp"
	"context"
	"math"
	"sort"
	"sync"

	"promips/internal/pager"
	"promips/internal/vec"
)

// CompareCandidates orders by ascending projected distance with the id as a
// deterministic tie-break, so every sort in the query path yields one
// well-defined order regardless of the sorting algorithm.
func CompareCandidates(a, b Candidate) int {
	if a.Dist != b.Dist {
		if a.Dist < b.Dist {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// scanScratch is the per-query scratch of the scan path: the page views of
// the sub-partition run being scanned. Pooled so a steady query load
// allocates nothing here.
type scanScratch struct {
	pages []pager.Page
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func (sc *scanScratch) release() {
	// Drop the (released) page handles before pooling so the scratch does
	// not retain page frames across queries.
	clear(sc.pages[:cap(sc.pages)])
	scanScratchPool.Put(sc)
}

// Search visits every indexed point whose projected distance d to q
// satisfies rLo < d ≤ rHi, in disk order (sub-partition by sub-partition;
// callers sort when they need distance order). Pass rLo < 0 for a plain
// range search. visit returning false stops the scan early.
//
// Filtering follows §VI: partitions whose sphere does not intersect the
// query sphere are skipped, and within one the rings outside the query
// sphere's ring-key range are never visited; within a surviving ring, a
// sub-partition is read only when its (pivot, radius) sphere intersects the
// query sphere and is not entirely inside the rLo ball.
//
// Cancellation is checked between sub-partition scans (one sub-partition is
// at most a few pages of sequential I/O, so a cancelled query stops within
// that bound); the scan then returns ctx.Err().
//
// Projected-point page reads are recorded in io, the caller's per-query
// accumulator; nil discards the accounting. The ring directory is in memory
// and costs no page access.
func (idx *Index) Search(ctx context.Context, q []float32, rLo, rHi float64, io *pager.IOStats, visit func(Candidate) bool) error {
	entrySize := 4 + vec.EncodedSize(idx.m)
	sc := scanScratchPool.Get().(*scanScratch)
	defer sc.release()
	for p, center := range idx.centers {
		if err := ctx.Err(); err != nil {
			return err
		}
		dc := vec.L2Dist(q, center)
		if dc-rHi > idx.radii[p] {
			continue // query sphere misses this partition entirely
		}
		ringLo := int64(math.Max(0, (dc-rHi)/idx.epsilon))
		// Clamp before the int64 conversion: rHi may be +Inf (full-scan
		// fallback) and the float→int conversion of an out-of-range value
		// is undefined.
		hiRing := (dc + rHi) / idx.epsilon
		ringHi := idx.stride - 1
		if !math.IsInf(hiRing, 1) && hiRing < float64(idx.stride-1) {
			ringHi = int64(hiRing)
		}
		for _, rg := range idx.ringsIn(int64(p)*idx.stride+ringLo, int64(p)*idx.stride+ringHi) {
			for _, sub := range rg.subs {
				if err := ctx.Err(); err != nil {
					return err
				}
				ds := vec.L2Dist(q, sub.center)
				if ds-sub.radius > rHi {
					continue // sphere outside the query sphere
				}
				if rLo >= 0 && ds+sub.radius <= rLo {
					continue // sphere entirely inside the excluded ball
				}
				if more, err := idx.scanSub(sub, q, rLo, rHi, entrySize, sc, io, visit); err != nil || !more {
					return err
				}
			}
		}
	}
	return nil
}

// ringsIn returns the rings whose keys lie in [loKey, hiKey], ascending.
func (idx *Index) ringsIn(loKey, hiKey int64) []ring {
	lo := sort.Search(len(idx.rings), func(i int) bool { return idx.rings[i].key >= loKey })
	hi := sort.Search(len(idx.rings), func(i int) bool { return idx.rings[i].key > hiKey })
	return idx.rings[lo:max(lo, hi)]
}

// scanSub reads a sub-partition's short sequential page run in one
// readahead round trip and reports matching points. The first entry sits at
// (startPage, startSlot); later entries continue across page boundaries.
// The whole run is fetched with a single pager.ReadRun — cached pages come
// from the pool, the missing remainder costs one contiguous file read under
// one shard lock instead of a pager round trip per page — and distances are
// computed by the fused zero-copy kernel straight from the page bytes (no
// per-entry decode buffer exists on this path). The run stays pinned while
// it is scored and is released on every exit. It returns more=false when
// visit stops the scan, and a non-nil error when the run read fails (the
// caller must not treat that as a clean early stop: a truncated candidate
// set would silently void the probability guarantee).
func (idx *Index) scanSub(sub subPartition, q []float32, rLo, rHi float64, entrySize int, sc *scanScratch, io *pager.IOStats, visit func(Candidate) bool) (more bool, err error) {
	nPages := (sub.startSlot + sub.numPoints + idx.entriesPerPage - 1) / idx.entriesPerPage
	sc.pages, err = idx.data.ReadRun(sub.startPage, nPages, sc.pages[:0], io)
	if err != nil {
		return false, err
	}
	defer pager.ReleaseAll(sc.pages)
	remaining := sub.numPoints
	slot := sub.startSlot
	for _, pg := range sc.pages {
		page := pg.Bytes()
		for ; slot < idx.entriesPerPage && remaining > 0; slot++ {
			off := slot * entrySize
			id := vec.U32(page[off:])
			d := math.Sqrt(vec.L2DistSqBytes(page[off+4:], q))
			remaining--
			if d <= rHi && (rLo < 0 || d > rLo) {
				if !visit(Candidate{ID: id, Dist: d}) {
					return false, nil
				}
			}
		}
		slot = 0
	}
	return true, nil
}

// RangeSearch collects every point within distance r of q, sorted by
// ascending projected distance — the order MIP-Search-II consumes
// candidates in. Page reads are recorded in io.
func (idx *Index) RangeSearch(ctx context.Context, q []float32, r float64, io *pager.IOStats) ([]Candidate, error) {
	return idx.RangeSearchAppend(ctx, q, r, io, nil)
}

// RangeSearchAppend is RangeSearch accumulating into out's storage (out is
// truncated first), so a per-query scratch slice makes the candidate
// collection allocation-free in the steady state.
func (idx *Index) RangeSearchAppend(ctx context.Context, q []float32, r float64, io *pager.IOStats, out []Candidate) ([]Candidate, error) {
	out, err := idx.CollectRangeAppend(ctx, q, r, io, out)
	if err != nil {
		return nil, err
	}
	SortCandidates(out)
	return out, nil
}

// CollectRangeAppend gathers every point within distance r of q into out's
// storage in disk order, without sorting. The hot path streams the result
// through a CandidateStream, which yields ascending order lazily and skips
// the sorting work for candidates the caller never consumes.
func (idx *Index) CollectRangeAppend(ctx context.Context, q []float32, r float64, io *pager.IOStats, out []Candidate) ([]Candidate, error) {
	out = out[:0]
	err := idx.Search(ctx, q, -1, r, io, func(c Candidate) bool {
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Iterator yields indexed points in ascending projected distance from a
// query — the incremental NN search of Algorithm 1 (MIP-Search-I). It
// expands the search radius ring by ring, buffering and sorting each
// annulus.
type Iterator struct {
	idx     *Index
	ctx     context.Context
	io      *pager.IOStats
	q       []float32
	r       float64
	step    float64
	maxR    float64
	buf     []Candidate
	pos     int
	done    bool
	lastErr error
}

// NewIterator starts an incremental NN scan from q, recording page reads
// in io. The annulus width defaults to the ring width ε (each expansion
// round touches at most one new ring per partition). The context is held
// for the iterator's lifetime — an iterator is one query's scan — and
// cancellation surfaces through Err after Next returns false.
func (idx *Index) NewIterator(ctx context.Context, q []float32, io *pager.IOStats) *Iterator {
	maxR := 0.0
	for p, c := range idx.centers {
		if d := vec.L2Dist(q, c) + idx.radii[p]; d > maxR {
			maxR = d
		}
	}
	step := idx.epsilon
	if step <= 0 {
		step = 1
	}
	return &Iterator{idx: idx, ctx: ctx, io: io, q: q, step: step, maxR: maxR}
}

// Next returns the next nearest point, or ok=false when the index is
// exhausted (or a read failed; see Err).
func (it *Iterator) Next() (Candidate, bool) {
	for it.pos >= len(it.buf) {
		if it.done {
			return Candidate{}, false
		}
		lo := it.r
		hi := it.r + it.step
		if lo == 0 {
			lo = -1 // first annulus is the closed ball [0, step]
		}
		// Grow the annulus geometrically when rounds come back empty, so a
		// query far from all partitions doesn't crawl ε by ε.
		it.buf = it.buf[:0]
		it.pos = 0
		err := it.idx.Search(it.ctx, it.q, lo, hi, it.io, func(c Candidate) bool {
			it.buf = append(it.buf, c)
			return true
		})
		if err != nil {
			it.lastErr = err
			it.done = true
			return Candidate{}, false
		}
		SortCandidates(it.buf)
		it.r = hi
		if hi > it.maxR {
			it.done = true
		}
		if len(it.buf) == 0 {
			it.step *= 2
		}
	}
	c := it.buf[it.pos]
	it.pos++
	return c, true
}

// Err reports a read error that terminated the iteration, if any.
func (it *Iterator) Err() error { return it.lastErr }
