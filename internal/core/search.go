package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"promips/internal/errs"
	"promips/internal/idistance"
	"promips/internal/pager"
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
	t.insert(id, ip)
}

// insert is offer's slow path, kept out of line so that offer's test
// inlines into the loops that mostly fail it.
func (t *topK) insert(id uint32, ip float64) {
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
	// Only core's tests set it, to check the search without pre-ranking;
	// results satisfy the same (c, p) guarantee either way.
	NoPrerank bool
}

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
// sub-partition scans, every 256 entries of the un-compacted update scan,
// every 256 candidates of the verification passes and between reads of the
// sequential scan; the error then satisfies errors.Is(err, ctx.Err()).
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
	if !finite(vec.Norm2Sq(q)) {
		return 0, 0, 0, fmt.Errorf("core: query: %w", errNonFinite)
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

// The ski-rental shares: a query that has exactly verified more than
// 1/share of the disk-resident points one random read at a time is an exact
// scan in disguise, and finishing with ONE sequential walk of the vector
// store is cheaper than continuing. The price of a random verification
// depends on where its page lives, so the share does too: when the store
// is resident a verification is mostly a memory read, worth about 3.5
// scanned vectors, and the rent runs to n/4; when it is not, every
// verification is a file read, worth 5–7 scanned vectors when the page cache
// serves it and more when a device does, and the rent stops at n/12. Either
// way the random reads wasted before the switch are bounded by a small
// multiple of the price of the scan itself (DESIGN.md, "Ski-rental scan",
// derives both shares from measured costs, which are those of a
// verification that reads its row and of a scan that scores every row in
// float: since every verification and every scan is screened, most read
// no row, and the shares stay until one priced rule replaces them).
const (
	residentScanShare = 4
	coldScanShare     = 12
)

// runawayBudget is how many stored points a query on this view may verify
// one random read at a time: the verification after the budget is spent ends
// the query in the sequential scan instead. It counts verifications, not
// misses, so a query's answer is a deterministic function of the index and
// of whether its store is resident.
func (sn *snapshot) runawayBudget() int {
	share := coldScanShare
	if sn.orig.Pager().Resident() {
		share = residentScanShare
	}
	return sn.n/share + 1
}

// errRunaway is verify's signal that the query spent its runawayBudget,
// and orderedPass's that plansScan expects it to; search answers it with
// scanAll. It never leaves this file.
var errRunaway = errors.New("core: verification budget exceeded")

// query is one Search's working state: the inputs, the per-query constants
// derived from them, and the accumulators every phase updates. Its methods
// are the phases of Algorithm 2 + 3 in the order run calls them.
type query struct {
	ctx    context.Context
	sn     *snapshot
	sc     *queryScratch
	q      []float32
	params SearchParams
	k      int
	c, p   float64

	normQSq, normQ float64
	chi            float64 // Ψm⁻¹(p): shared by Quick-Probe's Test A and Condition B

	top *topK
	io  *pager.IOStats // nil discards the accounting (Exact)
	st  SearchStats
	// sketchLUT is set once the pre-ranking pass runs; it arms the
	// sketch-bound prune of the verification passes.
	sketchLUT []float64
	verifies  int // verify calls so far: every 256th is a cancellation point
	budget    int // sn.runawayBudget()
	// ordered counts the candidates handed to the lazy sort — what the
	// set-aside pass of orderedPass exists to keep small. Diagnostic: read by
	// BenchmarkSearchCold and the differential test only.
	ordered int
	// screened counts the verifications the int8 screen settled without
	// reading the store. Diagnostic like ordered: read by the search
	// benchmarks and the screen's tests only.
	screened int
	// planned reports that plansScan sent the query to the sequential scan.
	// Diagnostic like ordered: read by BenchmarkSearchCold and the
	// differential test only.
	planned bool
}

// newQuery binds sc's query state to one search and quantizes the query
// into sc.zq for the int8 screen, which every path that scores a stored row
// — Search's verification, the sequential scan, Exact — settles it with.
// The state lives in the pooled scratch (putScratch clears it), so a query
// allocates nothing for it.
func (sn *snapshot) newQuery(ctx context.Context, sc *queryScratch, q []float32, k int, c, p float64, params SearchParams) *query {
	s := &sc.query
	*s = query{ctx: ctx, sn: sn, sc: sc, q: q, params: params, k: k, c: c, p: p, top: &sc.top, io: &sc.io,
		budget: sn.runawayBudget()}
	s.normQSq = vec.Norm2Sq(q)
	s.normQ = math.Sqrt(s.normQSq)
	s.top.reset(k)
	sc.zq.Quantize(q)
	return s
}

func (sn *snapshot) search(ctx context.Context, q []float32, k int, params SearchParams) ([]Result, SearchStats, error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return nil, SearchStats{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	s := sn.newQuery(ctx, sc, q, k, c, p, params)
	return s.finish(s.run())
}

// finish turns the outcome of run into Search's return values; a runaway
// query is answered by the sequential scan first.
func (s *query) finish(err error) ([]Result, SearchStats, error) {
	if err == errRunaway {
		s.st.TerminatedBy = "scan"
		err = s.scanAll()
	}
	if err != nil {
		return nil, s.st, err
	}
	s.st.PageAccesses = s.io.Pages()
	return s.sc.takeResults(), s.st, nil
}

// run is Quick-Probe + MIP-Search-II (Algorithm 3). Candidates are consumed
// in ascending projected distance (the order the incremental NN search of
// Algorithm 1 would return them in), so Theorem 2 lets Condition B be tested
// on every candidate using the projected distance the range search already
// computed — no extra disk reads, one threshold comparison per point.
func (s *query) run() error {
	sn, sc := s.sn, s.sc
	if err := s.begin(); err != nil {
		return err
	}
	r, err := s.probeRadius()
	if err != nil {
		return err
	}
	// Candidates are collected unsorted, in disk order.
	if sc.cands, err = sn.idist.Search(s.ctx, sc.pq, -1, r, s.io, sc.cands[:0]); err != nil {
		return err
	}
	if err := s.prerank(); err != nil {
		return err
	}
	// Condition A needs no distance frontier, so it can fire right after the
	// pre-ranking pass.
	reason := ""
	if cond, _ := s.stopFrom(); cond == "A" && len(sc.window) > 0 {
		reason = "A"
	}
	if reason == "" {
		if reason, err = s.orderedPass(sc.cands, sc.window, sc.ests); err != nil {
			return err
		}
	}
	if reason == "" {
		// Range exhausted: test Condition B with the scanned radius (every
		// unseen point projects farther than r, so Ψm(r²/denom) ≥ p bounds
		// the miss probability by 1−p).
		reason = s.conditionsAtRadius(r)
	}
	if reason != "" {
		s.st.TerminatedBy = reason
		return nil
	}

	// Compensation: extend the range to r' (Algorithm 3 line 15). When
	// fewer than k candidates were found the guarantee needs a full scan,
	// so r' falls back to infinity.
	rExt := math.Inf(1)
	if ipK, full := s.top.kth(); full {
		rExt = math.Sqrt(s.chi * sn.conditionBDenominator(s.c, s.normQSq, ipK))
	}
	s.st.ExtendedRadius = rExt
	if sc.extCands, err = sn.idist.Search(s.ctx, sc.pq, r, rExt, s.io, sc.extCands[:0]); err != nil {
		return err
	}
	// Extension candidates lie in (r, r'] — disjoint from the range pass, so
	// nothing seen so far can share their frontier and no estimate is cached.
	sc.seen = sc.seen[:0]
	if reason, err = s.orderedPass(sc.extCands, nil, nil); err != nil {
		return err
	}
	if reason == "" {
		reason = "exhausted"
	}
	s.st.TerminatedBy = reason
	return nil
}

// begin is the prologue of both query drivers, run and runIncremental: it
// projects the query, derives χ = Ψm⁻¹(p) and evaluates the recently
// inserted points (frozen segments and the mutable delta) exactly, with no
// disk I/O — their inner products can only tighten the termination
// conditions.
func (s *query) begin() error {
	sn, sc := s.sn, s.sc
	sc.pq = sn.proj.ProjectInto(s.q, sc.pq)
	s.chi = stats.ChiSquareInvCDF(sn.m, s.p)
	var err error
	s.st.NormPruned, err = s.scanMem()
	return err
}

// probeRadius runs Quick-Probe (Algorithm 2) on the projected query and
// returns the estimated range: the located point's projected distance
// (fetching its projected vector costs one page access, the only
// projected-point read Quick-Probe needs).
func (s *query) probeRadius() (float64, error) {
	sn, sc := s.sn, s.sc
	probePos := sn.quickProbe(sc.pq, vec.Norm1(s.q), s.c, s.chi, &s.st, sc)
	var err error
	if sc.probePt, err = sn.idist.Projected(probePos, sc.probePt, s.io); err != nil {
		return 0, err
	}
	r := vec.L2Dist(sc.probePt, sc.pq)
	if r <= 0 {
		// The located point projects exactly onto the query; fall back to
		// one ring width so the range search has volume.
		r = sn.idist.Epsilon()
	}
	s.st.Radius = r
	return r, nil
}

// prerank verifies the sketch-estimated best candidates of sc.cands first:
// the true top-k usually sits inside this window, so ⟨omax^k,q⟩ — and with
// it Condition B's denominator and both exact prunes — reaches (near) its
// final value after a few dozen exact verifications instead of hundreds. The
// guarantee is untouched: the sketch only reorders verification, every
// result is still exactly verified, and the distance-ordered pass tests the
// termination conditions at frontiers no farther than the first unverified
// candidate (see DESIGN.md "I/O engine").
//
// It leaves the window's positions in sc.window (ascending), its seen
// members — verified or exactly bounded — in sc.seen, and every collected
// candidate's estimate in sc.ests. No sketch, NoPrerank or at most k
// candidates: all three stay empty and the sketch prune stays disarmed.
func (s *query) prerank() error {
	sn, sc := s.sn, s.sc
	sc.window, sc.seen, sc.ests = sc.window[:0], sc.seen[:0], sc.ests[:0]
	if sn.sketch == nil || s.params.NoPrerank || len(sc.cands) <= s.k {
		return nil
	}
	sc.lut = sn.sketch.NewLUT(s.q, sc.lut)
	s.sketchLUT = sc.lut
	for _, pc := range sc.selectPrerank(sn.sketch, s.k) {
		sc.window = append(sc.window, pc.idx)
		if !s.admits(pc.cand.ID) {
			continue
		}
		verified, err := s.verify(pc.cand, &pc.est)
		if err != nil {
			return err
		}
		if verified {
			s.st.Preranked++
		}
		sc.seen = append(sc.seen, pc.cand)
	}
	slices.Sort(sc.window)
	return nil
}

// admits reports whether id can be a result at all: not tombstoned by
// Delete, not rejected by the query's filter. A point that fails is skipped
// everywhere — it is neither verified nor counted, and it advances nothing.
func (s *query) admits(id uint32) bool {
	return s.sn.live(id) && s.params.accepts(id)
}

// dismissed applies the two EXACT in-memory prunes to an admitted candidate
// — no probability is spent, and the result set is bit-identical to
// verifying everything:
//  1. Cauchy-Schwarz: ⟨o,q⟩ ≤ ‖o‖‖q‖, with ‖o‖² in memory;
//  2. the PQ-sketch bound ⟨o,q⟩ ≤ estimate + residual·‖q‖ (est is the
//     candidate's cached sketch estimate, nil to compute it).
//
// A candidate whose bound cannot beat ⟨omax^k,q⟩ (which offer ignores at
// equality) cannot change the result set, so its store page is never
// touched. This is what turns the pre-ranking pass into page savings:
// ⟨omax^k,q⟩ peaks after the pre-ranked window, disqualifying most of the
// remaining candidates from memory alone. Both tests are monotone in
// ⟨omax^k,q⟩: a candidate dismissed once stays dismissed as the top-k fills.
// ‖o‖² and the sketch row are read at the candidate's layout position.
func (s *query) dismissed(cand idistance.Candidate, est *float64) bool {
	ipK, full := s.top.kth()
	if !full {
		return false
	}
	if ipK >= 0 && s.sn.norm2Sq[cand.Pos]*s.normQSq <= ipK*ipK {
		return true
	}
	if s.sketchLUT == nil {
		return false
	}
	if est == nil {
		return s.sn.sketch.Bound(cand.Pos, s.sketchLUT, s.normQ) <= ipK
	}
	return s.sn.sketch.BoundEstimate(cand.Pos, *est, s.normQ) <= ipK
}

// verify handles one admitted candidate at its turn: dismissed from memory
// (counted in NormPruned) or verified. Either way the candidate is SEEN:
// it is exactly (if one-sidedly) bounded, which is all the termination
// argument needs of a point inside the distance frontier. est is the
// candidate's cached sketch estimate, nil when none was computed.
//
// A verification is settled by the int8 screen when it proves the inner
// product cannot enter the top-k (query.screen), with no store page read;
// otherwise store.DotAt computes it from the row's page and it is offered.
// Either way it counts in Candidates and its page is noted, so results and
// every SearchStats field are those of reading the row.
func (s *query) verify(cand idistance.Candidate, est *float64) (verified bool, err error) {
	if s.verifies&255 == 0 {
		if err := s.ctx.Err(); err != nil {
			return false, err
		}
	}
	s.verifies++
	if s.dismissed(cand, est) {
		s.st.NormPruned++
		return false, nil
	}
	if s.st.Candidates >= s.budget {
		return false, errRunaway
	}
	s.st.Candidates++
	if s.screen(cand.Pos) {
		s.sn.orig.NoteAt(int(cand.Pos), s.io)
		s.screened++
		return true, nil
	}
	ip, buf, err := s.sn.orig.DotAt(int(cand.Pos), s.q, s.sc.readBuf, s.io)
	s.sc.readBuf = buf
	if err == nil {
		s.top.offer(cand.ID, ip)
	}
	return true, err
}

// stopFrom evaluates the termination tests against the current top-k: the
// condition that would end the query ("" while fewer than k points are
// held) and the squared projected distance from which it does. Every point
// NOT yet seen projects at least as far as the frontier, so Theorem 2 lets
// Condition B be tested with the frontier's distance: Ψm(dis²/denom) ≥ p,
// evaluated as dis² ≥ Ψm⁻¹(p)·denom. Condition A (Formula 1, denom ≤ 0)
// holds at any distance. As ⟨omax^k,q⟩ only rises, denom only falls: a
// frontier that may stop the query now may stop it ever after.
func (s *query) stopFrom() (reason string, distSq float64) {
	ipK, full := s.top.kth()
	if !full {
		return "", math.Inf(1)
	}
	denom := s.sn.conditionBDenominator(s.c, s.normQSq, ipK)
	if denom <= 0 {
		return "A", math.Inf(-1)
	}
	return "B", s.chi * denom
}

// conditions is stopFrom applied to one frontier distance.
func (s *query) conditions(dist float64) string {
	if reason, from := s.stopFrom(); dist*dist >= from {
		return reason
	}
	return ""
}

// conditionsAtRadius is the test after a range has been consumed whole:
// the frontier is the scanned radius itself.
func (s *query) conditionsAtRadius(r float64) string {
	ipK, full := s.top.kth()
	if !full {
		return ""
	}
	denom := s.sn.conditionBDenominator(s.c, s.normQSq, ipK)
	if denom <= 0 {
		return "A"
	}
	if stats.ChiSquareCDF(s.sn.m, r*r/denom) >= s.p {
		return "B"
	}
	return ""
}

// orderedPass consumes cands in ascending projected distance — verifying
// each, testing the termination conditions at its distance — and returns
// the condition that ended the query, "" when the candidates ran out first.
// window lists the positions in cands already handled by the pre-ranking
// pass (their seen members are in sc.seen) and ests the cached sketch
// estimates, both empty for a pass without pre-ranking.
//
// Only candidates that can still win are ordered. One linear pass first
// (setAside) drops the points the query does not admit and sets aside, as
// seen, every candidate the current ⟨omax^k,q⟩ already dismisses; the
// survivors alone go through the lazy stream and are re-tested against the
// live ⟨omax^k,q⟩ at their turn. Because dismissal is monotone, a candidate
// dismissed here is one the full ordered walk would have dismissed at its
// turn, so the verified sequence, the top-k and every page read are those of
// ordering everything. A set-aside candidate still advances the frontier at
// its own distance, but at a fixed top-k the conditions are monotone in
// distance: between two survivors they can only fire if they fire at the
// later one's distance. Only then does one scan of the seen set look for the
// earliest seen candidate in the gap at which the full walk would have
// stopped. NormPruned counts the set-aside candidates the full walk would
// have reached, i.e. those ordered no later than where the pass ends. A
// pass with cached estimates (the range pass after pre-ranking) asks
// plansScan first and, when it expects the query to run away, ends at once
// with errRunaway, before anything is ordered or counted.
func (s *query) orderedPass(cands []idistance.Candidate, window []int32, ests []float64) (string, error) {
	sc := s.sc
	fromWindow := len(sc.seen) // counted by the pre-ranking pass already
	survivors := s.setAside(cands, window, ests)
	if len(ests) > 0 && s.plansScan(survivors, len(sc.seen)-fromWindow) {
		s.planned = true
		return "", errRunaway
	}
	s.ordered += len(survivors)

	sc.stream.Init(survivors)
	prev := idistance.Candidate{Dist: math.Inf(-1)}
	for {
		cand, more := sc.stream.Next()
		if !more {
			cand = idistance.Candidate{Dist: math.Inf(1), ID: math.MaxUint32}
		}
		reached := -1 // set-aside candidates ordered before cand, once a scan has counted them
		if !more || s.conditions(cand.Dist) != "" {
			reason, n := s.firstStop(prev, cand, fromWindow)
			if reason != "" || !more {
				s.st.NormPruned += n
				return reason, nil
			}
			reached = n
		}
		_, err := s.verify(cand, nil)
		reason := ""
		if err == nil {
			reason = s.conditions(cand.Dist)
		}
		if err != nil || reason != "" { // a runaway query reports its stats too
			if reached < 0 {
				reached = reachedBy(sc.seen[fromWindow:], cand)
			}
			s.st.NormPruned += reached
			return reason, err
		}
		prev = cand
	}
}

// setAside is orderedPass's linear pass: it returns the survivors, in
// cands' backing array, and appends the dismissed candidates to sc.seen.
// Nothing is offered to the top-k here, so ⟨omax^k,q⟩ stays fixed for the
// whole pass: the loop reads it, the norms and the sketch once and applies
// dismissed's test to each candidate with them. Admission is tested only
// where something can fail it, a tombstone or a filter. Each candidate is
// written to both outputs and only the index of the one it belongs to
// advances, so the loop does not branch on the verdict, which varies from
// candidate to candidate.
func (s *query) setAside(cands []idistance.Candidate, window []int32, ests []float64) []idistance.Candidate {
	sn, seen := s.sn, s.sc.seen
	filtered := s.params.Filter != nil || len(sn.tombFrozen)+len(sn.tombRecent) > 0
	ipK, full := s.top.kth()
	normsPrune, ipKSq := full && ipK >= 0, ipK*ipK
	sketchPrune := full && s.sketchLUT != nil
	normQSq, normQ, norm2Sq, sk, lut := s.normQSq, s.normQ, sn.norm2Sq, sn.sketch, s.sketchLUT
	seen = slices.Grow(seen, len(cands))
	aside := seen[len(seen) : len(seen)+len(cands)]
	na, nv := 0, 0 // set aside, survivors
	for i, cand := range cands {
		if len(window) > 0 && window[0] == int32(i) {
			window = window[1:]
			continue
		}
		if filtered && !s.admits(cand.ID) {
			continue
		}
		out := 0
		if normsPrune && norm2Sq[cand.Pos]*normQSq <= ipKSq {
			out = 1
		}
		if sketchPrune {
			if len(ests) > 0 {
				if sk.BoundEstimate(cand.Pos, ests[i], normQ) <= ipK {
					out = 1
				}
			} else if out == 0 && sk.Bound(cand.Pos, lut, normQ) <= ipK {
				out = 1
			}
		}
		aside[na] = cand
		cands[nv] = cand // nv ≤ i: only read candidates are overwritten
		na += out
		nv += 1 - out
	}
	s.sc.seen = seen[:len(seen)+na]
	return cands[:nv]
}

// planGate is the planned scan's gate: a query is planned only while the
// set-aside pass dismisses less than 1/planGate of the admitted candidates
// it tests. A member query's pre-ranked top-k dismisses most of them (0.52
// to 0.94 of them on a cold-large shard); an out-of-sample query's, none.
const planGate = 8

// plansScan is the planned scan (DESIGN.md "Planned scan"): it reports
// whether the range pass should end in the sequential scan at once, because
// the query would only spend its runaway budget first. It runs once per
// query, right after the range pass's set-aside pass, when the pre-ranked
// window's exact inner products have raised ⟨omax^k,q⟩ as far as the
// pre-ranking pass can. survivors are that pass's survivors and dismissed
// how many admitted candidates it set aside. Two tests must both hold:
//   - the gate: the set-aside pass dismissed less than 1/planGate of the
//     admitted candidates outside the window;
//   - the count: with ipHat the k-th largest of the top-k's inner products
//     and the survivors' sketch estimates — where the sketch expects
//     ⟨omax^k,q⟩ to end — the survivors inside Condition B's frontier at
//     ipHat that neither exact prune dismisses at ipHat, added to the
//     verifications made so far, reach the budget.
//
// The answer cannot change: a planned query is answered by scanAll, which
// is exact, as a runaway one is. The rule reads only state the query holds,
// so it is deterministic, and a query the gate stops pays one comparison.
// One that passes it has its survivors' estimates recomputed into sc.ests
// (the set-aside pass keeps no map from a survivor to its cached one), which
// is cheap next to the scan it is about to be sent to.
func (s *query) plansScan(survivors []idistance.Candidate, dismissed int) bool {
	if planGate*dismissed >= dismissed+len(survivors) || s.st.Candidates+len(survivors) < s.budget {
		return false
	}
	if _, full := s.top.kth(); !full {
		return false
	}
	sc, sk := s.sc, s.sn.sketch
	sc.ests = estimates(sk, survivors, sc.lut, sc.ests)
	sc.keep.reset(s.k) // the top-k's inner products and the estimates
	for _, r := range s.top.results {
		sc.keep.offer(0, r.IP)
	}
	for _, e := range sc.ests {
		sc.keep.offer(0, e)
	}
	ipHat, _ := sc.keep.kth()
	denom := s.sn.conditionBDenominator(s.c, s.normQSq, ipHat)
	if denom <= 0 {
		return false
	}
	from, normQ, normQSq, norm2Sq := s.chi*denom, s.normQ, s.normQSq, s.sn.norm2Sq
	verifies := s.st.Candidates
	for i, c := range survivors {
		if c.Dist*c.Dist >= from || ipHat >= 0 && norm2Sq[c.Pos]*normQSq <= ipHat*ipHat ||
			sk.BoundEstimate(c.Pos, sc.ests[i], normQ) <= ipHat {
			continue
		}
		if verifies++; verifies >= s.budget {
			return true
		}
	}
	return false
}

// reachedBy counts the candidates of setAside ordered no later than end
// (idistance.CompareCandidates(c, end) ≤ 0).
func reachedBy(setAside []idistance.Candidate, end idistance.Candidate) int {
	n := 0
	for _, c := range setAside {
		if c.Dist < end.Dist || c.Dist == end.Dist && c.ID <= end.ID {
			n++
		}
	}
	return n
}

// firstStop finds the earliest seen candidate strictly between two
// consecutive survivors at whose distance the conditions hold for the
// current top-k — where a walk over every candidate would have stopped —
// and returns its condition, "" when there is none. The same scan counts
// the set-aside candidates (sc.seen[fromWindow:]) that walk reaches: those
// ordered no later than the stop, or than before when there is none. A
// candidate in the gap that is no stop (Dist² < from ≤ stop.Dist²) lies
// nearer than the stop, and every other one in the gap is the stop or
// follows it, so the count needs no second scan. (The range search drops
// NaN distances and the end sentinel follows every stored candidate, so
// the candidate order is strict and total here.) Float compares settle
// nearly every candidate; CompareCandidates breaks the distance ties.
func (s *query) firstStop(after, before idistance.Candidate, fromWindow int) (reason string, reached int) {
	cond, from := s.stopFrom()
	var at idistance.Candidate
	atAside := false
	for i, c := range s.sc.seen {
		aside := i >= fromWindow
		switch {
		case c.Dist > before.Dist: // past the gap
		case c.Dist < after.Dist || idistance.CompareCandidates(after, c) >= 0: // ahead of the gap
			if aside {
				reached++
			}
		case idistance.CompareCandidates(c, before) >= 0: // past the gap
		case cond == "" || !(c.Dist*c.Dist >= from): // in the gap, no stop
			if aside {
				reached++
			}
		case reason == "" || idistance.CompareCandidates(c, at) < 0:
			at, atAside, reason = c, aside, cond
		}
	}
	if atAside {
		reached++
	}
	return reason, reached
}

// scanAll replaces whatever the top-k holds with the EXACT top-k over the
// view's live, admitted points: the un-compacted entries through scanMem,
// then every stored row, in layout order, through the screened scan
// (screen.go), which reads a row (store.DotAt) only when its int8 bound
// can beat both its threshold and the running k-th. The accounting is that
// of verifying every admitted row: each counts in Candidates, the unread
// ones in screened too, and every data page is noted. It is how a runaway
// query finishes — an exact answer satisfies any (c, p) with probability
// 1 — and it is all of Exact. ctx is checked every 256 rows.
func (s *query) scanAll() error {
	sn, sc := s.sn, s.sc
	s.top.reset(s.k)
	// The entries scanMem prunes were counted by the query's first scan.
	if _, err := s.scanMem(); err != nil {
		return err
	}
	layout, rows := sn.idist.Layout(), sn.screen
	sc.rows = slices.Grow(sc.rows[:0], len(layout))
	if err := s.boundPass(0, len(layout), rows.codes, !sn.noScreen, func(pos int) (uint32, screenScale, float64) {
		return layout[pos], rows.scales[pos], sn.norm2Sq[pos]
	}); err != nil {
		return err
	}
	sn.orig.NoteAll(s.io)
	screened, err := s.settleRows(
		func(pos uint32) uint32 { return layout[pos] },
		func(pos uint32) (float64, error) {
			ip, buf, err := sn.orig.DotAt(int(pos), s.q, sc.readBuf, s.io)
			sc.readBuf = buf
			return ip, err
		})
	s.st.Candidates += len(sc.rows)
	s.screened += screened
	return err
}

// quickProbe implements Algorithm 2: rank the sign-code groups by their
// Theorem-3 lower bound, return the first group whose cheapest member
// passes Test A — Ψm(LB²/(c·(‖o‖₁+‖q‖₁)²)) ≥ p — or, failing that, the
// member with the largest recorded test value; the member is returned by
// its layout position. c and threshold = Ψm⁻¹(p) are derived from the
// query's effective (c, p), so per-query overrides steer the probe as well.
// The ranking lives in the query scratch; ties in the lower bound break on
// group index so the probe is deterministic under any sorting algorithm.
func (sn *snapshot) quickProbe(pq []float32, norm1Q, c, threshold float64, st *SearchStats, sc *queryScratch) int {
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
	bestPos := sn.groups[order[0].gi].minPos
	for _, rk := range order {
		st.GroupsProbed++
		g := sn.groups[rk.gi]
		ub := randproj.DistUpperBound(g.minNorm1, norm1Q)
		if ub <= 0 {
			// Query and point are both the origin: any range works.
			return int(g.minPos)
		}
		val := rk.lb * rk.lb / (c * ub * ub)
		if val >= threshold { // equivalent to Ψm(val) ≥ p, cheaper than the CDF
			return int(g.minPos)
		}
		if val > bestVal {
			bestVal, bestPos = val, g.minPos
		}
	}
	return int(bestPos)
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
// as SearchContext, whose verification pass it runs (see runIncremental),
// but it never ends in the sequential scan. Like SearchContext, it runs
// against a call-time snapshot and is safe for concurrent use.
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
	sc := getScratch()
	defer putScratch(sc)
	s := sn.newQuery(ctx, sc, q, k, c, p, params)
	return s.finish(s.runIncremental())
}

// runIncremental is MIP-Search-I (Algorithm 1): the ordered pass over the
// expanding annuli of the incremental NN search. Each band is consumed in
// ascending projected distance, so every point is verified (or pruned) and
// tested against Conditions A and B in the order the NN walk returns it;
// the band's seen set starts empty because nothing outside it lies in its
// distance range. The paper's walk has no ski-rental: it runs until a
// condition holds or the index is exhausted, so the runaway budget is
// lifted.
func (s *query) runIncremental() error {
	sc := s.sc
	s.budget = math.MaxInt
	if err := s.begin(); err != nil {
		return err
	}
	reason := ""
	var err error
	sc.cands, err = s.sn.idist.WalkAnnuli(s.ctx, sc.pq, s.io, sc.cands, func(band []idistance.Candidate) (bool, error) {
		sc.seen = sc.seen[:0]
		var err error
		reason, err = s.orderedPass(band, nil, nil)
		return reason != "", err
	})
	if err != nil {
		return err
	}
	if reason == "" {
		reason = "exhausted"
	}
	s.st.TerminatedBy = reason
	return nil
}

// Exact scans the whole dataset and returns the true top-k MIP points. It
// is the ground truth used by the overall-ratio and recall metrics and by
// tests of the probability guarantee. Like the approximate paths it runs
// against a call-time snapshot, so it is safe for concurrent use and never
// blocks updates. Cancelling ctx stops the scan within 256 rows and
// returns ctx.Err() — the scan is linear in the dataset, so a fanned-out
// exact merge (promips/shard) needs the same cancellation point the
// approximate paths have. It is scanAll, the walk a runaway Search finishes
// with: un-compacted entries through scanMem, stored rows through the
// screened scan, which reads only a row whose int8 bound can beat both its
// threshold and the running k-th, by store.DotAt.
func (ix *Index) Exact(ctx context.Context, q []float32, k int) ([]Result, error) {
	sn, err := ix.snapshot()
	if err != nil {
		return nil, err
	}
	defer sn.release()
	return sn.exact(ctx, q, k)
}

func (sn *snapshot) exact(ctx context.Context, q []float32, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, _, k, err := sn.beginSearch(q, k, SearchParams{})
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	s := sn.newQuery(ctx, sc, q, k, 0, 0, SearchParams{})
	s.io = nil
	if err := s.scanAll(); err != nil {
		return nil, err
	}
	return sc.takeResults(), nil
}
