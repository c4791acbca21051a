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

// scanScratch is the per-query scratch of the scan path: the pages of the
// sub-partition run being scanned, the read buffer of a data file read from
// disk and the squared distances of one page's entries. Pooled so a steady
// query load allocates nothing here.
type scanScratch struct {
	pages [][]byte
	buf   []byte
	dist  []float64
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func (sc *scanScratch) release() {
	// Drop the page views before pooling so the scratch does not keep a
	// retired generation's pages alive.
	clear(sc.pages[:cap(sc.pages)])
	scanScratchPool.Put(sc)
}

// Search appends to out every indexed point whose projected distance d to q
// satisfies rLo < d ≤ rHi, in disk order (sub-partition by sub-partition,
// so Pos ascends; callers sort when they need distance order) and returns
// the extended slice. Pass rLo < 0 for a plain range search. The range
// collection of a query, its compensation annulus and every band of
// WalkAnnuli are this one loop.
//
// Filtering follows §VI: partitions whose sphere does not intersect the
// query sphere are skipped, and within one the rings outside the query
// sphere's ring-key range are never visited; within a surviving ring, a
// sub-partition is read only when its (pivot, radius) sphere intersects the
// query sphere and is not entirely inside the rLo ball.
//
// Cancellation is checked between sub-partition scans (one sub-partition is
// at most a few pages of sequential I/O, so a cancelled query stops within
// that bound); the scan then returns ctx.Err(). On any error the returned
// slice keeps out's storage but its contents are partial: a truncated
// candidate set would silently void the probability guarantee, so callers
// must not use it.
//
// Projected-point page reads are recorded in io, the caller's per-query
// accumulator; nil discards the accounting. The ring directory is in memory
// and costs no page access.
func (idx *Index) Search(ctx context.Context, q []float32, rLo, rHi float64, io *pager.IOStats, out []Candidate) ([]Candidate, error) {
	sc := scanScratchPool.Get().(*scanScratch)
	defer sc.release()
	if cap(sc.dist) < idx.entriesPerPage {
		sc.dist = make([]float64, idx.entriesPerPage)
	}
	band := scanBand{rLo: rLo, rHi: rHi, hiSq: max(rHi*rHi*(1+0x1p-40), 0x1p-1022)}
	for p, center := range idx.centers {
		if err := ctx.Err(); err != nil {
			return out, err
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
					return out, err
				}
				ds := vec.L2Dist(q, sub.center)
				if ds-sub.radius > rHi {
					continue // sphere outside the query sphere
				}
				if rLo >= 0 && ds+sub.radius <= rLo {
					continue // sphere entirely inside the excluded ball
				}
				var err error
				if out, err = idx.scanSub(sub, q, band, sc, io, out); err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}

// scanBand is the distance test of one Search: rLo < d ≤ rHi. hiSq bounds
// the squared distances whose root is worth taking: for x > rHi²·(1+2⁻⁴⁰)
// the float64 square root exceeds rHi whatever the rounding of rHi² and of
// the product (each at most 2⁻⁵³ relative), so the entry fails the test and
// is dropped on x alone. The floor of hiSq at the smallest normal float64
// keeps that true when rHi² would underflow; rHi = +Inf gives hiSq = +Inf,
// and a NaN fails both forms of the test.
type scanBand struct {
	rLo, rHi, hiSq float64
}

// appendIn appends the entry (id, pos) at squared distance x when its
// distance falls in the band.
func (b scanBand) appendIn(out []Candidate, id, pos uint32, x float64) []Candidate {
	if x > b.hiSq {
		return out
	}
	if d := math.Sqrt(x); d <= b.rHi && (b.rLo < 0 || d > b.rLo) {
		out = append(out, Candidate{ID: id, Pos: pos, Dist: d})
	}
	return out
}

// ringsIn returns the rings whose keys lie in [loKey, hiKey], ascending.
func (idx *Index) ringsIn(loKey, hiKey int64) []ring {
	lo := sort.Search(len(idx.rings), func(i int) bool { return idx.rings[i].key >= loKey })
	hi := sort.Search(len(idx.rings), func(i int) bool { return idx.rings[i].key > hiKey })
	return idx.rings[lo:max(lo, hi)]
}

// scanSub reads a sub-partition's short sequential page run and appends its
// entries inside the band to out. The first entry sits at layout position
// startPos — page startPos/entriesPerPage, slot startPos%entriesPerPage —
// and later entries continue across page boundaries and positions. The
// whole run is one pager.Read: the pages a resident file keeps, or one
// contiguous file read into sc.buf. Each page's share of the run is scored
// straight from its bytes by vec.L2DistSqRows, four entries per pass over
// one view of the page (no per-entry decode buffer exists on this path;
// each distance is bit-identical to scoring its entry alone), then filtered
// into out.
func (idx *Index) scanSub(sub subPartition, q []float32, band scanBand, sc *scanScratch, io *pager.IOStats, out []Candidate) ([]Candidate, error) {
	slot := sub.startPos % idx.entriesPerPage
	nPages := (slot + sub.numPoints + idx.entriesPerPage - 1) / idx.entriesPerPage
	var err error
	sc.pages, sc.buf, err = idx.data.Read(int64(sub.startPos/idx.entriesPerPage), nPages, sc.pages[:0], sc.buf, io)
	if err != nil {
		return out, err
	}
	entrySize := 4 + vec.EncodedSize(idx.m)
	pos := uint32(sub.startPos)
	remaining := sub.numPoints
	for _, page := range sc.pages {
		run := page[slot*entrySize:]
		dist := sc.dist[:min(idx.entriesPerPage-slot, remaining)]
		vec.L2DistSqRows(run[4:], entrySize, q, dist)
		for i, x := range dist {
			out = band.appendIn(out, vec.U32(run[i*entrySize:]), pos+uint32(i), x)
		}
		pos += uint32(len(dist))
		remaining -= len(dist)
		slot = 0
	}
	return out, nil
}

// WalkAnnuli is the incremental NN search of Algorithm 1 (MIP-Search-I)
// as a schedule of Searches: it collects the expanding annuli around q into
// buf (reused band to band) and hands each band to visit, unsorted, until
// visit reports stop or the walk has covered every partition. The first
// band is the closed ball [0, ε]; each later band (lo, hi] starts where the
// previous one ended, and its width doubles after an empty band, so a query
// far from all partitions does not crawl ε by ε. The band that reaches past
// max over partitions of ‖q−Oᵢ‖+rᵢ is the last. Every indexed point falls in
// exactly one band, so a visitor that consumes each band in ascending
// distance sees the whole index in ascending projected distance. Page reads
// are recorded in io; an error from Search or visit ends the walk and is
// returned with buf's storage.
func (idx *Index) WalkAnnuli(ctx context.Context, q []float32, io *pager.IOStats, buf []Candidate, visit func(band []Candidate) (stop bool, err error)) ([]Candidate, error) {
	maxR := 0.0
	for p, c := range idx.centers {
		maxR = max(maxR, vec.L2Dist(q, c)+idx.radii[p])
	}
	step := idx.epsilon
	if step <= 0 {
		step = 1
	}
	for lo, hi := -1.0, step; ; lo, hi = hi, hi+step {
		var err error
		if buf, err = idx.Search(ctx, q, lo, hi, io, buf[:0]); err != nil {
			return buf, err
		}
		if stop, err := visit(buf); stop || err != nil || hi > maxR {
			return buf, err
		}
		if len(buf) == 0 {
			step *= 2
		}
	}
}
