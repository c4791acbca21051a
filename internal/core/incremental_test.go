package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"promips/internal/idistance"
	"promips/internal/stats"
)

// referenceNNWalk is Algorithm 1 as it was written before it ran on the
// ordered pass: every indexed point collected in one range (−1, +∞),
// sorted, and walked one candidate at a time — skipped when the query does
// not admit it, pruned by Cauchy-Schwarz or verified from the store, and
// then Conditions A and B tested in their CDF form at its distance. It is
// the oracle runIncremental is held to.
func (s *query) referenceNNWalk() error {
	sn, sc, top, st := s.sn, s.sc, s.top, &s.st
	sc.pq = sn.proj.ProjectInto(s.q, sc.pq)
	var err error
	if st.NormPruned, err = s.scanMem(); err != nil {
		return err
	}
	cands, err := sn.idist.Search(s.ctx, sc.pq, -1, math.Inf(1), s.io, nil)
	if err != nil {
		return err
	}
	idistance.SortCandidates(cands)
	for _, cand := range cands {
		if !sn.live(cand.ID) || !s.params.accepts(cand.ID) {
			continue
		}
		if ipK, full := top.kth(); full && ipK >= 0 && sn.norm2Sq[cand.Pos]*s.normQSq <= ipK*ipK {
			st.NormPruned++
		} else {
			ip, _, err := s.sn.orig.DotAt(int(cand.Pos), s.q, nil, s.io)
			if err != nil {
				return err
			}
			st.Candidates++
			top.offer(cand.ID, ip)
		}
		ipK, full := top.kth()
		if !full {
			continue
		}
		denom := sn.conditionBDenominator(s.c, s.normQSq, ipK)
		if denom <= 0 {
			st.TerminatedBy = "A"
			return nil
		}
		if stats.ChiSquareCDF(sn.m, cand.Dist*cand.Dist/denom) >= s.p {
			st.TerminatedBy = "B"
			return nil
		}
	}
	st.TerminatedBy = "exhausted"
	return nil
}

// incrementalDifferential answers one query with runIncremental and with
// referenceNNWalk on the same view and requires the same results, the same
// Candidates and NormPruned and the same termination. (Page accesses differ
// by construction: the reference reads the whole projected file.) It
// returns the termination.
func incrementalDifferential(sn *snapshot, q []float32, k int, params SearchParams) (string, error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return "", err
	}
	answer := func(drive func(*query) error) ([]Result, SearchStats, error) {
		sc := getScratch()
		defer putScratch(sc)
		return sn.newQuery(context.Background(), sc, q, k, c, p, params).finish(drive(&sc.query))
	}
	want, wantSt, err := answer((*query).referenceNNWalk)
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	got, gotSt, err := answer((*query).runIncremental)
	if err != nil {
		return "", err
	}
	if !reflect.DeepEqual(got, want) {
		return "", fmt.Errorf("results differ from the NN walk:\n got %v\nwant %v", got, want)
	}
	if gotSt.Candidates != wantSt.Candidates || gotSt.NormPruned != wantSt.NormPruned || gotSt.TerminatedBy != wantSt.TerminatedBy {
		return "", fmt.Errorf("stats differ from the NN walk:\n got %+v\nwant %+v", gotSt, wantSt)
	}
	return gotSt.TerminatedBy, nil
}

// TestIncrementalMatchesNNWalk is the differential oracle of Algorithm 1 on
// the shared engine: on the views and query parameters of the ordered-pass
// differential, the ordered pass over expanding annuli answers exactly as
// the one-candidate-at-a-time walk over the fully sorted index.
func TestIncrementalMatchesNNWalk(t *testing.T) {
	views, paramSets := differentialViews(t)
	perSet := 24
	if raceEnabled {
		perSet = 6
	}
	// A filter that admits fewer than k points never fills the top-k: the
	// walk runs through every band and ends exhausted.
	paramSets["filter below k"] = SearchParams{Filter: func(id uint32) bool { return id < 5 }}
	by := make(map[string]int)
	for _, v := range views {
		sn := v.snapshot(t)
		for pname, params := range paramSets {
			for qi := 0; qi < perSet; qi++ {
				q := v.queries[(qi*67)%len(v.queries)]
				k := []int{1, 10, 25, 150}[qi%4]
				reason, err := incrementalDifferential(sn, q, k, params)
				if err != nil {
					t.Fatalf("%s, %s, query %d, k=%d: %v", v.name, pname, qi, k, err)
				}
				by[reason]++
			}
		}
	}
	t.Logf("terminated %v", by)
	for _, reason := range []string{"A", "B", "exhausted"} {
		if by[reason] == 0 {
			t.Errorf("no query terminated by %q: %v", reason, by)
		}
	}
}
