package core

import (
	"context"
	"reflect"
	"testing"

	"promips/internal/dataset"
)

// TestRunawayBudgetFollowsResidency builds one dataset twice — with the
// default pool, which holds the vector store, and with an 8-page pool, which
// does not — and asks both the same member and out-of-sample queries. On
// each index a query ends in the scan exactly when it verified past that
// index's budget (n/4 resident, n/12 not). A query that scans on neither
// answers identically on both, stats included: the budget only cuts the
// verification sequence short, it never reorders it. A query that scans only
// on the small pool gets the exact answer there.
func TestRunawayBudgetFollowsResidency(t *testing.T) {
	const n, k = 1500, 10
	spec := dataset.Netflix()
	data := spec.Generate(n, 41)
	warm := buildIndex(t, data, Options{Seed: 3, M: 6})
	cold := buildIndex(t, data, Options{Seed: 3, M: 6, PoolSize: 8})
	if !warm.orig.Pager().Resident() || cold.orig.Pager().Resident() {
		t.Fatalf("residency: default pool %v, 8-page pool %v; want true, false", warm.orig.Pager().Resident(), cold.orig.Pager().Resident())
	}
	queries := append(data[:120:120], spec.Queries(16, 41)...)

	type answer struct {
		res []Result
		st  SearchStats
	}
	ask := func(ix *Index, q []float32) answer {
		t.Helper()
		sn, err := ix.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer sn.release()
		res, st, err := sn.search(context.Background(), q, k, SearchParams{})
		if err != nil {
			t.Fatal(err)
		}
		if budget := sn.runawayBudget(); (st.TerminatedBy == "scan") != (st.Candidates > budget) {
			t.Fatalf("terminated by %q after %d verifications on a budget of %d", st.TerminatedBy, st.Candidates, budget)
		}
		return answer{res, st}
	}
	var same, coldOnly, both int
	for qi, q := range queries {
		w, c := ask(warm, q), ask(cold, q)
		switch {
		case w.st.TerminatedBy == "scan" && c.st.TerminatedBy == "scan":
			both++
		case c.st.TerminatedBy == "scan":
			coldOnly++
			exact, err := cold.Exact(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.res, exact) {
				t.Fatalf("query %d: the small pool's scan is not the exact answer", qi)
			}
		case w.st.TerminatedBy == "scan":
			t.Fatalf("query %d scans on the resident index (%d verifications) but not on the small pool (%d)", qi, w.st.Candidates, c.st.Candidates)
		default:
			same++
			if !reflect.DeepEqual(w, c) {
				t.Fatalf("query %d answers differently at two pool sizes:\n default %+v\n  8-page %+v", qi, w, c)
			}
		}
	}
	t.Logf("%d queries: %d answered identically, %d scanned only on the small pool, %d on both", len(queries), same, coldOnly, both)
	if same == 0 || coldOnly == 0 || both == 0 {
		t.Fatal("the queries must reach all three cases")
	}
}
