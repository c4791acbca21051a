package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"promips/internal/errs"
	"promips/internal/idistance"
	"promips/internal/randproj"
	"promips/internal/stats"
	"promips/internal/vec"
)

// topK maintains the k largest inner products seen so far as a sorted slice
// (descending by IP). k is at most 100 in the paper's experiments, so linear
// insertion beats heap bookkeeping.
type topK struct {
	k       int
	results []Result
}

func newTopK(k int) *topK { return &topK{k: k, results: make([]Result, 0, k)} }

// reset prepares a pooled accumulator for a new query, reusing its backing.
func (t *topK) reset(k int) {
	t.k = k
	if cap(t.results) < k {
		t.results = make([]Result, 0, k)
	}
	t.results = t.results[:0]
}

// offer inserts (id, ip) when it beats the current k-th best.
func (t *topK) offer(id uint32, ip float64) {
	if len(t.results) == t.k && ip <= t.results[t.k-1].IP {
		return
	}
	pos := sort.Search(len(t.results), func(i int) bool { return t.results[i].IP < ip })
	t.results = append(t.results, Result{})
	copy(t.results[pos+1:], t.results[pos:])
	t.results[pos] = Result{ID: id, IP: ip}
	if len(t.results) > t.k {
		t.results = t.results[:t.k]
	}
}

// kth returns the current k-th best inner product (⟨omax^k, q⟩ in the
// paper's c-k-AMIP extension), and false while fewer than k points have
// been collected.
func (t *topK) kth() (float64, bool) {
	if len(t.results) < t.k {
		return math.Inf(-1), false
	}
	return t.results[t.k-1].IP, true
}

// SearchParams carries a query's overrides of the index defaults. The two
// guarantee knobs are query-local: Quick-Probe's test threshold and the two
// termination conditions are recomputed from (c, p) per query, so no index
// state depends on them. The zero value reproduces the build-time Options.
type SearchParams struct {
	// C overrides the approximation ratio for this query (0 = index
	// default). Must lie in (0,1).
	C float64
	// P overrides the guarantee probability for this query (0 = index
	// default). Must lie in (0,1).
	P float64
	// Filter restricts the search to points whose id it accepts; nil
	// accepts every point. Rejected points are neither verified nor
	// returned, and the (c, p) guarantee is made against the best point
	// that passes the filter.
	Filter func(id uint32) bool
	// NoPrerank disables the PQ-sketch verification pre-ranking and restores
	// the pure ascending-projected-distance order (the pre-sketch behavior).
	// Benchmarks use it to measure the pre-ranking effect; results satisfy
	// the same (c, p) guarantee either way.
	NoPrerank bool
}

// Candidate verdicts of the verification path: skipped candidates
// (tombstoned or filtered) advance nothing; pruned and verified ones both
// advance the Condition B distance frontier — a pruned candidate is exactly
// (if one-sidedly) bounded, so it is "seen" in the sense the termination
// argument needs.
const (
	candSkipped = iota
	candPruned
	candVerified
)

// resolve returns the effective (c, p) for a query.
func (sn *snapshot) resolve(p SearchParams) (float64, float64, error) {
	c, pr := p.C, p.P
	if c == 0 {
		c = sn.optC
	}
	if pr == 0 {
		pr = sn.optP
	}
	// Negated-range form so NaN fails too: every comparison with NaN is
	// false, and a NaN that slipped through would reach idistance's
	// float→int64 ring conversion, whose result is undefined.
	if !(c > 0 && c < 1) {
		return 0, 0, fmt.Errorf("core: approximation ratio c must be in (0,1), got %v", c)
	}
	if !(pr > 0 && pr < 1) {
		return 0, 0, fmt.Errorf("core: probability p must be in (0,1), got %v", pr)
	}
	return c, pr, nil
}

// accepts reports whether the query's filter admits id.
func (p *SearchParams) accepts(id uint32) bool {
	return p.Filter == nil || p.Filter(id)
}

// Search runs the full ProMIPS query (Quick-Probe + MIP-Search-II) with the
// index defaults and no cancellation. It is the convenience form of
// SearchContext for internal callers and benchmarks.
func (ix *Index) Search(q []float32, k int) ([]Result, SearchStats, error) {
	return ix.SearchContext(context.Background(), q, k, SearchParams{})
}

// SearchContext runs the full ProMIPS query (Quick-Probe + MIP-Search-II)
// and returns the top-k c-AMIP results, best inner product first. With
// probability at least p, every returned point oi satisfies
// ⟨oi,q⟩ ≥ c·⟨o*i,q⟩, where (c, p) come from params (falling back to the
// build-time options). Cancellation is honored between iDistance
// sub-partition scans and every 256 entries of the un-compacted update scan;
// the error then satisfies errors.Is(err, ctx.Err()).
// SearchContext is safe to call from many goroutines against one shared
// Index; each call accounts its own page accesses. The query runs against
// a SNAPSHOT of the index state at call time: the index lock is held only
// for the capture, so concurrent inserts, deletes, segment freezes and
// compactions never block a running search (and never appear mid-query).
func (ix *Index) SearchContext(ctx context.Context, q []float32, k int, params SearchParams) ([]Result, SearchStats, error) {
	sn, err := ix.snapshot()
	if err != nil {
		return nil, SearchStats{}, err
	}
	defer sn.release()
	return sn.search(ctx, q, k, params)
}

// beginSearch is the shared validation prologue of the two query entry
// points: per-query parameter resolution, dimension check, and the k clamp
// against the snapshot's live count. (The closed check already happened at
// snapshot capture.)
func (sn *snapshot) beginSearch(q []float32, k int, params SearchParams) (c, p float64, kk int, err error) {
	c, p, err = sn.resolve(params)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(q) != sn.d {
		return 0, 0, 0, fmt.Errorf("core: %w: query dim %d, want %d", errs.ErrDimMismatch, len(q), sn.d)
	}
	if k <= 0 {
		return 0, 0, 0, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if live := sn.liveCount(); k > live {
		k = live
	}
	if k == 0 {
		return 0, 0, 0, fmt.Errorf("core: %w: index has no live points", errs.ErrEmptyIndex)
	}
	return c, p, k, nil
}

func (sn *snapshot) search(ctx context.Context, q []float32, k int, params SearchParams) ([]Result, SearchStats, error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return nil, SearchStats{}, err
	}
	sc := getScratch(sn)
	defer putScratch(sc)
	io := &sc.io
	var st SearchStats

	sc.pq = sn.proj.ProjectInto(q, sc.pq)
	pq := sc.pq
	normQSq := vec.Norm2Sq(q)
	norm1Q := vec.Norm1(q)

	// Ψm⁻¹(p) is shared by Quick-Probe's Test A and Condition B below —
	// one inverse-CDF evaluation per query, not two.
	chiThreshold := stats.ChiSquareInvCDF(sn.m, p)

	// ---- Quick-Probe (Algorithm 2) -----------------------------------
	probeID := sn.quickProbe(pq, norm1Q, c, chiThreshold, &st, sc)

	// The located point's projected distance is the estimated range
	// (fetching its projected vector costs one page access, the only
	// projected-point read Quick-Probe needs).
	sc.probePt, err = sn.idist.Projected(probeID, sc.probePt, io)
	if err != nil {
		return nil, st, err
	}
	r := vec.L2Dist(sc.probePt, pq)
	if r <= 0 {
		// The located point projects exactly onto the query; fall back to
		// one ring width so the range search has volume.
		r = sn.idist.Epsilon()
	}
	st.Radius = r

	// ---- MIP-Search-II (Algorithm 3) ----------------------------------
	// Candidates are consumed in ascending projected distance (the order
	// the incremental NN search of Algorithm 1 would return them in), so
	// Theorem 2 lets us test Condition B on every candidate using the
	// projected distance the range search already computed — no extra disk
	// reads, one threshold comparison per point. Condition B's test
	// Ψm(dis²/denom) ≥ p is evaluated as dis² ≥ Ψm⁻¹(p)·denom.
	top := &sc.top
	top.reset(k)
	// Recently inserted points (frozen segments and the mutable delta) are
	// evaluated exactly up front (no disk I/O); their inner products can
	// only tighten the conditions below. The query's sketch lookup table is
	// built here when that scan can prune with it, and at most once: the
	// pre-ranking pass below reuses it.
	memLUT := sn.memLUT(q, &sc.lut)
	st.NormPruned, err = sn.scanMem(ctx, q, normQSq, memLUT, top, &params)
	if err != nil {
		return nil, st, err
	}
	// sketchLUT is set once the pre-ranking pass runs; it arms the
	// sketch-bound prune inside verifyCand.
	var sketchLUT []float64
	normQ := math.Sqrt(normQSq)
	// verifyCand computes the candidate's exact inner product straight from
	// its store page (zero-copy, page-local via the scratch reader) and
	// updates the top-k. Before paying the page read it applies two EXACT
	// in-memory prunes — no probability is spent, and the result set is
	// bit-identical to verifying everything:
	//   1. Cauchy-Schwarz: ⟨o,q⟩ ≤ ‖o‖‖q‖, with ‖o‖² in memory;
	//   2. the PQ-sketch bound ⟨o,q⟩ ≤ estimate + residual·‖q‖.
	// A candidate whose bound cannot beat ⟨omax^k,q⟩ (which offer ignores
	// at equality) cannot change the result set, so its store page is never
	// touched. This is what turns the pre-ranking pass into page savings:
	// ⟨omax^k,q⟩ peaks after the pre-ranked window, disqualifying most of
	// the remaining candidates from memory alone.
	verifyCand := func(cand idistance.Candidate) (verdict int, err error) {
		if !sn.live(cand.ID) {
			return candSkipped, nil // tombstoned by Delete
		}
		if !params.accepts(cand.ID) {
			return candSkipped, nil // rejected by the query's filter
		}
		if ipK, full := top.kth(); full {
			if ipK >= 0 && sn.norm2Sq[cand.ID]*normQSq <= ipK*ipK {
				st.NormPruned++
				return candPruned, nil
			}
			if sketchLUT != nil && sn.sketch.Bound(cand.ID, sketchLUT, normQ) <= ipK {
				st.NormPruned++
				return candPruned, nil
			}
		}
		ip, err := sc.reader.Dot(cand.ID, q, io)
		if err != nil {
			return candSkipped, err
		}
		st.Candidates++
		top.offer(cand.ID, ip)
		return candVerified, nil
	}
	// conditions evaluates the termination tests at a distance frontier:
	// every point NOT yet exactly verified projects at least dist from the
	// query, so Theorem 2 lets Condition B be tested with dist — no extra
	// disk reads, one threshold comparison. Condition B's test
	// Ψm(dis²/denom) ≥ p is evaluated as dis² ≥ Ψm⁻¹(p)·denom.
	conditions := func(dist float64) string {
		ipK, full := top.kth()
		if !full {
			return ""
		}
		denom := sn.conditionBDenominator(c, normQSq, ipK)
		if denom <= 0 {
			return "A" // Condition A (Formula 1) holds
		}
		if dist*dist >= chiThreshold*denom {
			return "B" // Condition B (Formula 2) holds
		}
		return ""
	}

	// Candidates are collected unsorted, in disk order.
	sc.cands, err = sn.idist.CollectRangeAppend(ctx, pq, r, io, sc.cands)
	if err != nil {
		return nil, st, err
	}

	// ---- PQ-sketch pre-ranking ---------------------------------------
	// Verify the sketch-estimated best candidates first: the true top-k
	// usually sits inside this window, so ⟨omax^k,q⟩ — and with it
	// Condition B's denominator — reaches (near) its final value after a
	// few dozen exact verifications instead of hundreds. The guarantee is
	// untouched: the sketch only reorders verification, every result is
	// still exactly verified, and the distance-ordered pass below tests the
	// termination conditions at frontiers no farther than the first
	// unverified candidate (see DESIGN.md "I/O engine").
	terminated := ""
	preranked := sc.prerankIDs[:0]
	if sn.sketch != nil && !params.NoPrerank && len(sc.cands) > k {
		if memLUT == nil {
			sc.lut = sn.sketch.NewLUT(q, sc.lut)
		}
		sketchLUT = sc.lut
		for _, pc := range sc.selectPrerank(sn.sketch, k) {
			v, err := verifyCand(pc.cand)
			if err != nil {
				return nil, st, err
			}
			if v == candVerified {
				st.Preranked++
			}
			if v != candSkipped {
				// Seen (verified or exactly bounded): the distance-ordered
				// pass below treats it as frontier-advancing only.
				preranked = append(preranked, pc.cand.ID)
			}
		}
		slices.Sort(preranked)
		// Condition A needs no distance frontier, so it can already fire.
		if ipK, full := top.kth(); full && sn.conditionBDenominator(c, normQSq, ipK) <= 0 {
			terminated = "A"
		}
	}
	sc.prerankIDs = preranked

	// The distance-ordered pass: the lazy stream yields ascending projected
	// distance, sorting only the prefix consumed before a condition
	// terminates the query (usually a small fraction of the collected set).
	if terminated == "" {
		sc.stream.Init(sc.cands)
		for {
			cand, ok := sc.stream.Next()
			if !ok {
				break
			}
			if len(preranked) > 0 {
				if _, found := slices.BinarySearch(preranked, cand.ID); found {
					// Verified in the pre-rank pass; its distance still
					// advances the termination frontier.
					if terminated = conditions(cand.Dist); terminated != "" {
						break
					}
					continue
				}
			}
			v, err := verifyCand(cand)
			if err != nil {
				return nil, st, err
			}
			if v != candSkipped {
				if terminated = conditions(cand.Dist); terminated != "" {
					break
				}
			}
		}
	}
	if terminated != "" {
		st.TerminatedBy = terminated
		st.PageAccesses = io.Pages()
		return sc.takeResults(), st, nil
	}

	// Range exhausted: test Condition B with the scanned radius (every
	// unseen point projects farther than r, so Ψm(r²/denom) ≥ p bounds the
	// miss probability by 1−p).
	ipK, full := top.kth()
	if full {
		denom := sn.conditionBDenominator(c, normQSq, ipK)
		if denom <= 0 {
			st.TerminatedBy = "A"
			st.PageAccesses = io.Pages()
			return sc.takeResults(), st, nil
		}
		if stats.ChiSquareCDF(sn.m, r*r/denom) >= p {
			st.TerminatedBy = "B"
			st.PageAccesses = io.Pages()
			return sc.takeResults(), st, nil
		}
	}

	// Compensation: extend the range to r' (Algorithm 3 line 15). When
	// fewer than k candidates were found the guarantee needs a full scan,
	// so r' falls back to infinity.
	rExt := math.Inf(1)
	if full {
		denom := sn.conditionBDenominator(c, normQSq, ipK)
		rExt = math.Sqrt(chiThreshold * denom)
	}
	st.ExtendedRadius = rExt

	extCands := sc.extCands[:0]
	err = sn.idist.Search(ctx, pq, r, rExt, io, func(cand idistance.Candidate) bool {
		extCands = append(extCands, cand)
		return true
	})
	sc.extCands = extCands
	if err != nil {
		return nil, st, err
	}
	// Extension candidates lie in (r, r'] — disjoint from the range pass, so
	// none of them can have been pre-rank verified.
	sc.stream.Init(extCands)
	for {
		cand, ok := sc.stream.Next()
		if !ok {
			break
		}
		v, err := verifyCand(cand)
		if err != nil {
			return nil, st, err
		}
		if v == candSkipped {
			continue
		}
		if cond := conditions(cand.Dist); cond != "" {
			st.TerminatedBy = cond
			st.PageAccesses = io.Pages()
			return sc.takeResults(), st, nil
		}
	}
	st.TerminatedBy = "exhausted"
	st.PageAccesses = io.Pages()
	return sc.takeResults(), st, nil
}

// quickProbe implements Algorithm 2: rank the sign-code groups by their
// Theorem-3 lower bound, return the first group whose cheapest member
// passes Test A — Ψm(LB²/(c·(‖o‖₁+‖q‖₁)²)) ≥ p — or, failing that, the
// member with the largest recorded test value. c and threshold = Ψm⁻¹(p)
// are derived from the query's effective (c, p), so per-query overrides
// steer the probe as well. The ranking lives in the query scratch; ties in
// the lower bound break on group index so the probe is deterministic under
// any sorting algorithm.
func (sn *snapshot) quickProbe(pq []float32, norm1Q, c, threshold float64, st *SearchStats, sc *queryScratch) uint32 {
	codeQ := randproj.Code(pq)
	order := sc.order[:0]
	for i, g := range sn.groups {
		order = append(order, rankedGroup{lb: randproj.GroupLowerBound(g.code, codeQ, pq), gi: i})
	}
	sc.order = order
	slices.SortFunc(order, func(a, b rankedGroup) int {
		if a.lb != b.lb {
			if a.lb < b.lb {
				return -1
			}
			return 1
		}
		return a.gi - b.gi
	})

	bestVal := -1.0
	bestID := sn.groups[order[0].gi].minID
	for _, rk := range order {
		st.GroupsProbed++
		g := sn.groups[rk.gi]
		ub := randproj.DistUpperBound(g.minNorm1, norm1Q)
		if ub <= 0 {
			// Query and point are both the origin: any range works.
			return g.minID
		}
		val := rk.lb * rk.lb / (c * ub * ub)
		if val >= threshold { // equivalent to Ψm(val) ≥ p, cheaper than the CDF
			return g.minID
		}
		if val > bestVal {
			bestVal, bestID = val, g.minID
		}
	}
	return bestID
}

// SearchIncremental runs Algorithm 1 (MIP-Search-I) with the index
// defaults; see SearchIncrementalContext.
func (ix *Index) SearchIncremental(q []float32, k int) ([]Result, SearchStats, error) {
	return ix.SearchIncrementalContext(context.Background(), q, k, SearchParams{})
}

// SearchIncrementalContext answers the query with the paper's Algorithm 1
// (MIP-Search-I): an incremental NN scan in the projected space, testing
// Conditions A and B on every returned point. It is kept for the ablation
// study of Quick-Probe's benefit; the results carry the same probability
// guarantee and honor the same per-query overrides and cancellation points
// as SearchContext. Like SearchContext, it runs against a call-time
// snapshot and is safe for concurrent use.
func (ix *Index) SearchIncrementalContext(ctx context.Context, q []float32, k int, params SearchParams) ([]Result, SearchStats, error) {
	sn, err := ix.snapshot()
	if err != nil {
		return nil, SearchStats{}, err
	}
	defer sn.release()
	return sn.searchIncremental(ctx, q, k, params)
}

func (sn *snapshot) searchIncremental(ctx context.Context, q []float32, k int, params SearchParams) ([]Result, SearchStats, error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return nil, SearchStats{}, err
	}
	sc := getScratch(sn)
	defer putScratch(sc)
	io := &sc.io
	var st SearchStats

	sc.pq = sn.proj.ProjectInto(q, sc.pq)
	normQSq := vec.Norm2Sq(q)
	top := &sc.top
	top.reset(k)
	memLUT := sn.memLUT(q, &sc.lut)
	st.NormPruned, err = sn.scanMem(ctx, q, normQSq, memLUT, top, &params)
	if err != nil {
		return nil, st, err
	}

	it := sn.idist.NewIterator(ctx, sc.pq, io)
	for {
		cand, ok := it.Next()
		if !ok {
			if err := it.Err(); err != nil {
				return nil, st, err
			}
			st.TerminatedBy = "exhausted"
			break
		}
		if !sn.live(cand.ID) || !params.accepts(cand.ID) {
			continue
		}
		// The same exact Cauchy-Schwarz prune as the main path: a candidate
		// whose norm cannot beat the current k-th inner product is counted
		// seen without touching its store page.
		if ipK, full := top.kth(); full && ipK >= 0 && sn.norm2Sq[cand.ID]*normQSq <= ipK*ipK {
			st.NormPruned++
		} else {
			ip, err := sc.reader.Dot(cand.ID, q, io)
			if err != nil {
				return nil, st, err
			}
			st.Candidates++
			top.offer(cand.ID, ip)
		}
		ipK, full := top.kth()
		if !full {
			continue
		}
		if sn.conditionA(c, normQSq, ipK) {
			st.TerminatedBy = "A"
			break
		}
		denom := sn.conditionBDenominator(c, normQSq, ipK)
		if denom > 0 && stats.ChiSquareCDF(sn.m, cand.Dist*cand.Dist/denom) >= p {
			st.TerminatedBy = "B"
			break
		}
	}
	st.PageAccesses = io.Pages()
	return sc.takeResults(), st, nil
}

// Exact scans the whole dataset through the store and returns the true
// top-k MIP points. It is the ground truth used by the overall-ratio and
// recall metrics and by tests of the probability guarantee. Like the
// approximate paths it runs against a call-time snapshot, so it is safe
// for concurrent use and never blocks updates. Cancelling ctx stops the
// scan between store pages and returns ctx.Err() — the scan is linear in
// the dataset, so a fanned-out exact merge (promips/shard) needs the same
// cancellation point the approximate paths have. Un-compacted entries go
// through the same exactly-pruned scanMem as the approximate paths (a
// pruned entry provably cannot be in the top-k), and the layout walk scores
// four stored vectors per pass of the row-interleaved kernel.
func (ix *Index) Exact(ctx context.Context, q []float32, k int) ([]Result, error) {
	sn, err := ix.snapshot()
	if err != nil {
		return nil, err
	}
	defer sn.release()
	return sn.exact(ctx, q, k)
}

func (sn *snapshot) exact(ctx context.Context, q []float32, k int) ([]Result, error) {
	if len(q) != sn.d {
		return nil, fmt.Errorf("core: %w: query dim %d, want %d", errs.ErrDimMismatch, len(q), sn.d)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if live := sn.liveCount(); k > live {
		k = live
	}
	if k == 0 {
		return nil, fmt.Errorf("core: %w: index has no live points", errs.ErrEmptyIndex)
	}
	top := newTopK(k)
	if _, err := sn.scanMem(ctx, q, vec.Norm2Sq(q), sn.memLUT(q, new([]float64)), top, nil); err != nil {
		return nil, err
	}
	rd := sn.orig.NewReader()
	layout := sn.idist.Layout()
	var batch [4]int // layout positions of live points awaiting one Dot4At
	nb := 0
	for pos := 0; pos < sn.n; pos++ {
		// Checking every position would put a branch on ctx into the inner
		// loop for nothing: 256 positions are at most a few pages of I/O.
		if pos&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// The reader walks layout order; recover the id from the layout.
		if !sn.live(layout[pos]) {
			continue
		}
		batch[nb] = pos
		if nb++; nb == len(batch) {
			ips, err := rd.Dot4At(batch, q, nil)
			if err != nil {
				return nil, err
			}
			for i, ip := range ips {
				top.offer(layout[batch[i]], ip)
			}
			nb = 0
		}
	}
	for _, pos := range batch[:nb] {
		ip, err := rd.DotAt(pos, q, nil)
		if err != nil {
			return nil, err
		}
		top.offer(layout[pos], ip)
	}
	return top.results, nil
}
