package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"promips/internal/idistance"
	"promips/internal/pager"
	"promips/internal/pq"
	"promips/internal/vec"
)

// queryScratch is the per-query working memory of the search hot path. One
// query needs a projected-query buffer, Quick-Probe's group ranking, the
// candidate collections of the range search and its extension, the top-k
// accumulator's backing array and the per-query I/O accounting (with its
// distinct-page set). All of it lives here and is recycled through a
// sync.Pool, so a steady query load allocates almost nothing per Search:
// only the result slice handed to the caller (scratch memory must never
// escape into a return value — the next query would overwrite it).
//
// A scratch belongs to exactly one query for its duration. SearchBatch
// workers each draw their own from the pool, so concurrent queries never
// share one.
type queryScratch struct {
	query   query // the search in progress (see search.go)
	io      pager.IOStats
	pq      []float32 // projected query (m)
	probePt []float32 // Quick-Probe point's projected vector (m)

	order    []rankedGroup         // Quick-Probe's group ranking
	cands    []idistance.Candidate // range-search candidates
	extCands []idistance.Candidate // compensation-range candidates
	stream   idistance.CandidateStream

	// PQ-sketch pre-ranking state: the query's asymmetric lookup table, the
	// sketch estimate of every range-search candidate (parallel to cands as
	// collected), the estimated-best window selected for early verification,
	// and the window's positions in cands (sorted) for the ordered pass to
	// step over.
	lut     []float64
	ests    []float64
	prerank []prerankCand
	window  []int32

	// seen holds the candidates of the pass in progress that are exactly
	// bounded without being ordered: the pre-ranked window's, then the ones
	// the ordered pass set aside (see query.orderedPass).
	seen []idistance.Candidate

	// The screened scans' state (screen.go): every admitted row of the scan
	// in progress, the rows with the k largest bounds (keep, also the
	// planned scan's selection), and the first pass's dot products of one
	// chunk.
	rows []scanRow
	keep topK
	dots [scanChunk]int64

	top     topK           // its results slice is the pooled backing
	zq      vec.Int16Query // the query as the int8 screen reads it
	readBuf []byte         // a cold store's one-page read buffer, for DotAt (nil until a query needs it)
}

// prerankCand is one pre-ranking window entry: a range-search candidate, its
// position in the collected set and its sketch-estimated inner product with
// the query.
type prerankCand struct {
	cand idistance.Candidate
	idx  int32
	est  float64
}

// prerankMinWindow floors the pre-ranking window: even at tiny k the
// sketch-estimated best few dozen candidates are verified up front — enough
// to put the true top-k's inner products into Condition B's denominator
// before the distance-ordered pass starts, and noise next to the hundreds
// of verifications it saves.
const prerankMinWindow = 48

// selectPrerank fills sc.prerank with the candidates of sc.cands holding
// the largest sketch-estimated inner products (window max(4k,
// prerankMinWindow)), best first, and sc.ests with every candidate's
// estimate — each code row is walked once per query, here, four rows per
// pass; the candidates arrive in layout order, so the rows are visited in
// ascending memory order. sc.lut must already hold the query's lookup table.
// The selection is deterministic: ties in the estimate break on the smaller
// id.
func (sc *queryScratch) selectPrerank(sk *pq.Sketch, k int) []prerankCand {
	w := 4 * k
	if w < prerankMinWindow {
		w = prerankMinWindow
	}
	if w > len(sc.cands) {
		w = len(sc.cands)
	}
	sc.ests = estimates(sk, sc.cands, sc.lut, sc.ests)
	sc.prerank = bestByEstimate(sc.prerank[:0], sc.cands, sc.ests, w)
	return sc.prerank
}

// estimates sets dst (reused when large enough) to the sketch estimate of
// every candidate of cands under lut, four rows per pass, and returns it.
func estimates(sk *pq.Sketch, cands []idistance.Candidate, lut []float64, dst []float64) []float64 {
	ests := slices.Grow(dst[:0], len(cands))[:len(cands)]
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		c := cands[i : i+4 : i+4]
		ests[i], ests[i+1], ests[i+2], ests[i+3] = sk.Estimate4(c[0].Pos, c[1].Pos, c[2].Pos, c[3].Pos, lut)
	}
	for ; i < len(cands); i++ {
		ests[i] = sk.Estimate(cands[i].Pos, lut)
	}
	return ests
}

// bestByEstimate appends to sel (empty) the w ≥ 1 candidates with the
// largest estimates, ordered by (estimate desc, id asc), as an insertion
// into a window kept in that order. Nearly every candidate of a query loses
// to the window's current last entry once the window is full, so one float
// compare against that entry's estimate (floor) rejects it before its id is
// read; only a tie goes on to outranks, and only a winner to the binary
// search for its insertion point.
func bestByEstimate(sel []prerankCand, cands []idistance.Candidate, ests []float64, w int) []prerankCand {
	floor := math.Inf(-1) // sel[w-1].est once the window is full
	for i, est := range ests {
		if est < floor {
			continue
		}
		id := cands[i].ID
		if len(sel) == w && !outranks(est, id, sel[w-1]) {
			continue
		}
		pos := sort.Search(len(sel), func(j int) bool { return outranks(est, id, sel[j]) })
		if len(sel) < w {
			sel = append(sel, prerankCand{})
		}
		copy(sel[pos+1:], sel[pos:])
		sel[pos] = prerankCand{cand: cands[i], idx: int32(i), est: est}
		if len(sel) == w {
			floor = sel[w-1].est
		}
	}
	return sel
}

// outranks reports whether a candidate with estimate est and id ranks
// strictly before pc in the pre-ranking order.
func outranks(est float64, id uint32, pc prerankCand) bool {
	return est > pc.est || (est == pc.est && id < pc.cand.ID)
}

// rankedGroup is one Quick-Probe ranking entry: a sign-code group and its
// Theorem-3 lower bound for the current query.
type rankedGroup struct {
	lb float64
	gi int
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// getScratch draws a scratch from the pool with its accounting cleared.
func getScratch() *queryScratch {
	sc := queryScratchPool.Get().(*queryScratch)
	sc.io.Reset()
	return sc
}

// putScratch returns sc to the pool. The query state is cleared first so an
// idle pool does not hold a snapshot, a retired store generation or a
// caller's query, context and filter alive.
func putScratch(sc *queryScratch) {
	sc.query = query{}
	queryScratchPool.Put(sc)
}

// takeResults copies the top-k accumulator's current contents into a fresh
// slice for the caller; the (possibly grown) backing array stays pooled.
// This is the one unavoidable steady-state allocation of a query: results
// outlive the query, scratch memory must not.
func (sc *queryScratch) takeResults() []Result {
	out := make([]Result, len(sc.top.results))
	copy(out, sc.top.results)
	return out
}
