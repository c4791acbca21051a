package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"promips/internal/dataset"
	"promips/internal/idistance"
	"promips/internal/stats"
)

// referenceRun is the verification half of the query as it was before
// candidates were pruned ahead of ordering: pre-rank, then sort EVERY
// collected candidate and walk them all, bounding each with a fresh walk of
// its sketch codes. It is the oracle orderedPass is held to — same results,
// same stats, bit for bit — and shares with run only what that change did
// not touch (the prologue, Quick-Probe, the collection, the window
// selection) plus the runaway rule and the planned scan's decision
// (plansScan), so queries that end in the sequential scan compare too.
func (s *query) referenceRun() error {
	sn, sc, top, st := s.sn, s.sc, s.top, &s.st
	if err := s.begin(); err != nil {
		return err
	}
	r, err := s.probeRadius()
	if err != nil {
		return err
	}
	const (
		candSkipped = iota
		candPruned
		candVerified
	)
	var sketchLUT []float64
	verifyCand := func(cand idistance.Candidate) (verdict int, err error) {
		if !sn.live(cand.ID) || !s.params.accepts(cand.ID) {
			return candSkipped, nil
		}
		if ipK, full := top.kth(); full {
			if ipK >= 0 && sn.norm2Sq[cand.Pos]*s.normQSq <= ipK*ipK {
				st.NormPruned++
				return candPruned, nil
			}
			if sketchLUT != nil && sn.sketch.Bound(cand.Pos, sketchLUT, s.normQ) <= ipK {
				st.NormPruned++
				return candPruned, nil
			}
		}
		if st.Candidates >= sn.runawayBudget() {
			return candSkipped, errRunaway
		}
		ip, _, err := s.sn.orig.DotAt(int(cand.Pos), s.q, nil, s.io)
		if err != nil {
			return candSkipped, err
		}
		st.Candidates++
		top.offer(cand.ID, ip)
		return candVerified, nil
	}
	conditions := func(dist float64) string {
		ipK, full := top.kth()
		if !full {
			return ""
		}
		denom := sn.conditionBDenominator(s.c, s.normQSq, ipK)
		if denom <= 0 {
			return "A"
		}
		if dist*dist >= s.chi*denom {
			return "B"
		}
		return ""
	}

	if sc.cands, err = sn.idist.Search(s.ctx, sc.pq, -1, r, s.io, sc.cands[:0]); err != nil {
		return err
	}
	var preranked []uint32
	if sn.sketch != nil && !s.params.NoPrerank && len(sc.cands) > s.k {
		sc.lut = sn.sketch.NewLUT(s.q, sc.lut)
		sketchLUT = sc.lut
		for _, pc := range sc.selectPrerank(sn.sketch, s.k) {
			v, err := verifyCand(pc.cand)
			if err != nil {
				return err
			}
			if v == candVerified {
				st.Preranked++
			}
			if v != candSkipped {
				preranked = append(preranked, pc.cand.ID)
			}
		}
		slices.Sort(preranked)
		if ipK, full := top.kth(); full && sn.conditionBDenominator(s.c, s.normQSq, ipK) <= 0 {
			st.TerminatedBy = "A"
			return nil
		}
		// The planned scan, fed what the set-aside pass would hand it: the
		// admitted candidates outside the window that the post-pre-ranking
		// ⟨omax^k,q⟩ does not dismiss, and how many it does.
		var survivors []idistance.Candidate
		dismissed := 0
		for _, cand := range sc.cands {
			if _, found := slices.BinarySearch(preranked, cand.ID); found || !sn.live(cand.ID) || !s.params.accepts(cand.ID) {
				continue
			}
			if ipK, full := top.kth(); full && (ipK >= 0 && sn.norm2Sq[cand.Pos]*s.normQSq <= ipK*ipK ||
				sn.sketch.Bound(cand.Pos, sketchLUT, s.normQ) <= ipK) {
				dismissed++
				continue
			}
			survivors = append(survivors, cand)
		}
		if s.plansScan(survivors, dismissed) {
			return errRunaway
		}
	}
	idistance.SortCandidates(sc.cands)
	for _, cand := range sc.cands {
		if _, found := slices.BinarySearch(preranked, cand.ID); !found {
			v, err := verifyCand(cand)
			if err != nil {
				return err
			}
			if v == candSkipped {
				continue
			}
		}
		if st.TerminatedBy = conditions(cand.Dist); st.TerminatedBy != "" {
			return nil
		}
	}

	ipK, full := top.kth()
	rExt := math.Inf(1)
	if full {
		denom := sn.conditionBDenominator(s.c, s.normQSq, ipK)
		if denom <= 0 {
			st.TerminatedBy = "A"
			return nil
		}
		if stats.ChiSquareCDF(sn.m, r*r/denom) >= s.p {
			st.TerminatedBy = "B"
			return nil
		}
		rExt = math.Sqrt(s.chi * denom)
	}
	st.ExtendedRadius = rExt
	extCands, err := sn.idist.Search(s.ctx, sc.pq, r, rExt, s.io, nil)
	if err != nil {
		return err
	}
	idistance.SortCandidates(extCands)
	for _, cand := range extCands {
		v, err := verifyCand(cand)
		if err != nil {
			return err
		}
		if v == candSkipped {
			continue
		}
		if st.TerminatedBy = conditions(cand.Dist); st.TerminatedBy != "" {
			return nil
		}
	}
	st.TerminatedBy = "exhausted"
	return nil
}

// orderedPassTally is what a differential run saw, so a test can require
// that its cases reached the branches they were built for.
type orderedPassTally struct {
	queries, collected, ordered int
	by                          map[string]int // TerminatedBy → queries
	extended                    int            // queries that ran the compensation pass
	planned                     int            // queries plansScan sent to the sequential scan
	kCovers                     int            // queries whose range pass collected at most k
}

// differential answers one query with run and with referenceRun on the same
// view and requires identical results and identical stats. It returns how
// many candidates the query's range pass collected.
func (tl *orderedPassTally) differential(sn *snapshot, q []float32, k int, params SearchParams) (ranged int, err error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return 0, err
	}
	var collected, ordered int
	var planned bool
	answer := func(run func(*query) error) ([]Result, SearchStats, error) {
		sc := getScratch()
		defer putScratch(sc)
		s := sn.newQuery(context.Background(), sc, q, k, c, p, params)
		res, st, err := s.finish(run(s))
		collected, ordered, ranged, planned = len(sc.cands), s.ordered, len(sc.cands), s.planned
		if st.ExtendedRadius != 0 {
			collected += len(sc.extCands)
		}
		return res, st, err
	}
	want, wantSt, err := answer((*query).referenceRun)
	if err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	got, gotSt, err := answer((*query).run)
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(got, want) {
		return 0, fmt.Errorf("results differ from the sort-everything walk:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		return 0, fmt.Errorf("stats differ from the sort-everything walk:\n got %+v\nwant %+v", gotSt, wantSt)
	}
	// The sequential scan is how a query ends exactly when it spent its
	// verification budget: never below it, and then the scan's own
	// verifications come on top.
	if spent := sn.runawayBudget(); (gotSt.TerminatedBy == "scan") != (gotSt.Candidates > spent) {
		return 0, fmt.Errorf("terminated by %q after %d verifications; the runaway rule fires past %d", gotSt.TerminatedBy, gotSt.Candidates, spent)
	}
	if tl.by == nil {
		tl.by = make(map[string]int)
	}
	tl.queries++
	tl.by[gotSt.TerminatedBy]++
	if gotSt.ExtendedRadius != 0 {
		tl.extended++
	}
	if planned {
		tl.planned++
	}
	if ranged <= k {
		tl.kCovers++
	}
	if gotSt.TerminatedBy != "scan" {
		tl.collected += collected
		tl.ordered += ordered
	}
	return ranged, nil
}

// diffView is one index view the query-path differentials answer queries
// on.
type diffView struct {
	name    string
	ix      *Index
	queries [][]float32
	mutate  func(*snapshot) // test-only edits of the captured view
}

// snapshot captures the view, applies its edits and releases it when the
// test ends (before the index's Close, which waits for it).
func (v diffView) snapshot(t *testing.T) *snapshot {
	t.Helper()
	sn, err := v.ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.release)
	if v.mutate != nil {
		v.mutate(sn)
	}
	return sn
}

// differentialViews builds every shape of index and query the query passes
// branch on — a plain index, a cold store, the same index without a sketch,
// tombstones, an update backlog, tied projected distances, gaussian data —
// and the per-query parameter sets the differentials sweep on each.
func differentialViews(t *testing.T) ([]diffView, map[string]SearchParams) {
	const n = 1500
	netflix := dataset.Netflix().Generate(n+400, 21)
	// Duplicated points project identically: ties in projected distance,
	// broken by id, in every one of the passes.
	tied := slices.Clone(netflix[:n])
	for i := 0; i < n; i += 5 {
		tied[i] = tied[(i+1)%n]
	}
	gauss := randData(rand.New(rand.NewSource(5)), 900, 24)

	plain := buildIndex(t, netflix[:n], Options{Seed: 3, M: 6})
	backlog, backlogData := backlogIndex(t, t.TempDir())
	deleted := buildIndex(t, netflix[:n], Options{Seed: 9, M: 6})
	for id := uint32(0); id < n; id += 3 {
		deleted.Delete(id)
	}
	views := []diffView{
		{name: "netflix", ix: plain, queries: netflix},
		// The store is 63 times its 8-page pool: verification reads around the
		// pool, and the runaway budget is n/12.
		{name: "cold store", ix: buildIndex(t, netflix[:n], Options{Seed: 3, M: 6, PoolSize: 8}), queries: netflix},
		{name: "pre-sketch index", ix: plain, queries: netflix, mutate: func(sn *snapshot) { sn.sketch = nil }},
		{name: "tombstones", ix: deleted, queries: netflix},
		{name: "backlog", ix: backlog, queries: backlogData},
		{name: "ties", ix: buildIndex(t, tied, Options{Seed: 4, M: 6}), queries: tied},
		{name: "gaussian", ix: buildIndex(t, gauss, Options{Seed: 6, M: 5}), queries: gauss},
	}
	paramSets := map[string]SearchParams{
		"defaults":  {},
		"c.8 p.7":   {C: 0.8, P: 0.7},
		"c.95 p.9":  {C: 0.95, P: 0.9},
		"filter":    {Filter: func(id uint32) bool { return id%4 != 1 }},
		"noprerank": {NoPrerank: true},
	}
	return views, paramSets
}

// TestOrderedPassMatchesSortEverything is the differential oracle of the
// prune-before-order pass: on every shape of index and query the pass
// branches on, the answer and every SearchStats field equal those of
// sorting and walking all collected candidates.
func TestOrderedPassMatchesSortEverything(t *testing.T) {
	views, paramSets := differentialViews(t)
	var total orderedPassTally
	for _, v := range views {
		sn := v.snapshot(t)
		var tl orderedPassTally
		// The query with the smallest range pass, to ask it for more than
		// that pass collects.
		narrow, narrowK := v.queries[0], math.MaxInt
		for _, q := range v.queries[:200] {
			ranged, err := new(orderedPassTally).differential(sn, q, 1, SearchParams{})
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			if ranged < narrowK {
				narrow, narrowK = q, ranged
			}
		}
		for pname, params := range paramSets {
			if _, err := tl.differential(sn, narrow, narrowK+5, params); err != nil {
				t.Fatalf("%s, %s, narrowest query, k=%d: %v", v.name, pname, narrowK+5, err)
			}
			for qi := 0; qi < 24; qi++ {
				q := v.queries[(qi*67)%len(v.queries)]
				k := []int{1, 10, 25, 150}[qi%4]
				if _, err := tl.differential(sn, q, k, params); err != nil {
					t.Fatalf("%s, %s, query %d, k=%d: %v", v.name, pname, qi, k, err)
				}
			}
		}
		t.Logf("%-16s %d queries, terminated %v, %d extended, %d planned, %d with k ≥ collected, ordered %d of %d collected",
			v.name, tl.queries, tl.by, tl.extended, tl.planned, tl.kCovers, tl.ordered, tl.collected)
		total.queries += tl.queries
		total.extended += tl.extended
		total.planned += tl.planned
		total.kCovers += tl.kCovers
		total.ordered += tl.ordered
		total.collected += tl.collected
		for reason, c := range tl.by {
			if total.by == nil {
				total.by = make(map[string]int)
			}
			total.by[reason] += c
		}
	}
	// The cases must have reached every way a query ends, and the pass must
	// have kept most of what was collected out of the sort.
	for _, reason := range []string{"A", "B", "exhausted", "scan"} {
		if total.by[reason] == 0 {
			t.Errorf("no query terminated by %q: %v", reason, total.by)
		}
	}
	if total.extended == 0 {
		t.Error("no query ran the compensation pass")
	}
	if total.planned == 0 || total.planned == total.by["scan"] {
		t.Errorf("%d of %d scanning queries planned: the cases reach only one of the two ways into the scan", total.planned, total.by["scan"])
	}
	if total.kCovers == 0 {
		t.Error("no query had k ≥ the candidates its range pass collected")
	}
	if total.ordered*2 > total.collected {
		t.Errorf("ordered %d of %d collected candidates: the set-aside pass dismisses too little", total.ordered, total.collected)
	}
}

// TestFirstStopOnTheFrontier: a seen candidate exactly on Condition B's
// frontier, dis² == Ψm⁻¹(p)·denom, is where the walk over every candidate
// stops — Ψm(dis²/denom) ≥ p holds there with equality — and one a float
// below it is not. The case is built rather than drawn: the k-th inner
// product is stepped until the frontier has an exact float square root.
func TestFirstStopOnTheFrontier(t *testing.T) {
	data := dataset.Netflix().Generate(200, 41)
	ix := buildIndex(t, data, Options{Seed: 2, M: 6})
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	sc := getScratch()
	defer putScratch(sc)
	s := sn.newQuery(context.Background(), sc, data[0], 1, 0.9, 0.5, SearchParams{})
	s.chi = stats.ChiSquareInvCDF(sn.m, s.p)
	var dist, from float64
	for ipK, steps := 0.1, 0; ; ipK, steps = math.Nextafter(ipK, 1), steps+1 {
		if steps == 1000 {
			t.Fatal("no frontier with an exact square root in 1000 steps of the k-th")
		}
		s.top.reset(1)
		s.top.offer(7, ipK)
		var cond string
		if cond, from = s.stopFrom(); cond != "B" {
			t.Fatalf("k-th %v: condition %q, want B", ipK, cond)
		}
		if dist = math.Sqrt(from); dist*dist == from {
			break
		}
	}
	below := math.Nextafter(dist, 0)
	sc.seen = append(sc.seen[:0],
		idistance.Candidate{Dist: dist, ID: 3},  // on the frontier: the stop
		idistance.Candidate{Dist: below, ID: 5}, // inside it: reached, no stop
	)
	after := idistance.Candidate{Dist: math.Inf(-1)}
	before := idistance.Candidate{Dist: 2 * dist, ID: 9}
	if s.conditions(dist) != "B" || s.conditions(below) != "" {
		t.Fatalf("conditions at the frontier %q and below it %q, want B and none", s.conditions(dist), s.conditions(below))
	}
	if reason, reached := s.firstStop(after, before, 0); reason != "B" || reached != 2 {
		t.Fatalf("firstStop with a seen candidate on the frontier (dis² = %v = χ·denom): %q after %d, want B after 2", dist*dist, reason, reached)
	}
}

// TestPlansScanGateAtItsBoundary: the planned scan's gate passes a query
// only while its set-aside pass dismisses strictly less than 1/planGate of
// the admitted candidates outside the window. orderedPass is run on built
// inputs: dismissed candidates carry an estimate far below the k-th inner
// product, so the pass sets aside exactly those, and the budget is the
// survivor count, so the count test passes whenever the gate does. With
// dismissed·planGate == dismissed + survivors the query is not planned;
// one survivor more and it is, one fewer and it is not.
func TestPlansScanGateAtItsBoundary(t *testing.T) {
	data := dataset.Netflix().Generate(200, 43)
	ix := buildIndex(t, data, Options{Seed: 2, M: 6})
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	sc := getScratch()
	defer putScratch(sc)
	const dismissed = 3
	boundary := (planGate - 1) * dismissed // survivors at the gate's boundary
	for _, tc := range []struct {
		survivors int
		planned   bool
	}{{boundary - 1, false}, {boundary, false}, {boundary + 1, true}} {
		// k exceeds the survivors, so the k-th of the top-k's inner products
		// and the survivors' estimates (the count's ipHat) is the top-k's
		// floor, far below every survivor's bound.
		k := tc.survivors + 1
		s := sn.newQuery(context.Background(), sc, data[0], k, 0.9, 0.5, SearchParams{})
		if err := s.begin(); err != nil {
			t.Fatal(err)
		}
		s.budget = tc.survivors
		sc.lut = sn.sketch.NewLUT(s.q, sc.lut)
		s.sketchLUT = sc.lut
		for i := range k {
			s.top.offer(uint32(1000+i), -1e9)
		}
		sc.seen = sc.seen[:0]
		var cands []idistance.Candidate
		var ests []float64
		for pos := range dismissed + tc.survivors {
			est := 0.0
			if pos < dismissed {
				est = -1e12
			}
			cands = append(cands, idistance.Candidate{ID: uint32(pos), Pos: uint32(pos), Dist: float64(pos + 1)})
			ests = append(ests, est)
		}
		if _, err := s.orderedPass(cands, nil, ests); err != nil && err != errRunaway {
			t.Fatal(err)
		}
		if s.planned != tc.planned {
			t.Errorf("%d dismissed, %d survivors (planGate·dismissed %d, admitted %d): planned %v, want %v",
				dismissed, tc.survivors, planGate*dismissed, dismissed+tc.survivors, s.planned, tc.planned)
		}
	}
}

// TestVerificationPassCancellation: the verification passes are a
// cancellation point. The context is cancelled from inside the ordered pass
// (by the filter, which that pass consults for every collected candidate);
// the pass must stop within its 256-candidate check interval instead of
// verifying the query out.
func TestVerificationPassCancellation(t *testing.T) {
	data := dataset.Netflix().Generate(3000, 31)
	ix := buildIndex(t, data, Options{Seed: 5, M: 6})
	// An out-of-sample query verifies far more than one check interval.
	q := dataset.Netflix().Queries(1, 77)[0]
	_, full, err := ix.SearchContext(context.Background(), q, 10, SearchParams{NoPrerank: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Candidates < 3*256 {
		t.Fatalf("the query verifies only %d candidates: too few to observe an early stop", full.Candidates)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, st, err := ix.SearchContext(ctx, q, 10, SearchParams{NoPrerank: true, Filter: func(uint32) bool {
		if calls++; calls == 100 {
			cancel()
		}
		return true
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Search cancelled mid-pass returned %v, want context.Canceled", err)
	}
	if st.Candidates+st.NormPruned > 256 {
		t.Fatalf("the pass handled %d candidates after the cancel", st.Candidates+st.NormPruned)
	}
}
