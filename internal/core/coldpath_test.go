package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"promips/internal/dataset"
	"promips/internal/par"
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

// TestNoPinLeakAfterQueries is the pin contract's leak invariant: whatever
// a query does — Search, SearchIncremental, Exact, a batch, a filtered
// query, a runaway one that ends in the scan, one cancelled in its ordered
// pass and one cancelled in its scan — every page it pinned is released by
// the time it returns, on every pager of the index.
func TestNoPinLeakAfterQueries(t *testing.T) {
	spec := dataset.Netflix()
	data := spec.Generate(1500, 43)
	ix := buildIndex(t, data, Options{Seed: 4, M: 6, PoolSize: 32})
	outside := spec.Queries(4, 43)
	pinned := func(what string) {
		t.Helper()
		n := ix.orig.Pager().Pinned()
		for _, pg := range ix.idist.Pagers() {
			n += pg.Pinned()
		}
		if n != 0 {
			t.Fatalf("%s: %d pages still pinned", what, n)
		}
	}
	ctx := context.Background()
	for _, q := range data[:8] {
		if _, _, err := ix.Search(q, 10); err != nil {
			t.Fatal(err)
		}
		pinned("Search")
		if _, _, err := ix.SearchIncremental(q, 10); err != nil {
			t.Fatal(err)
		}
		pinned("SearchIncremental")
		if _, err := ix.Exact(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
		pinned("Exact")
		if _, _, err := ix.SearchContext(ctx, q, 10, SearchParams{Filter: func(id uint32) bool { return id%3 != 0 }}); err != nil {
			t.Fatal(err)
		}
		pinned("filtered Search")
	}
	// A batch, as promips.SearchBatch runs one: concurrent queries on the pool.
	batch := data[8:40]
	err := par.Do(ctx, len(batch), func(i int) error {
		_, _, err := ix.SearchContext(ctx, batch[i], 10, SearchParams{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned("batch")
	_, st, err := ix.Search(outside[0], 10)
	if err != nil || st.TerminatedBy != "scan" {
		t.Fatalf("out-of-sample query: %v, terminated by %q; want the runaway scan", err, st.TerminatedBy)
	}
	pinned("runaway Search")

	// Cancelled from the filter, which the verification passes consult per
	// candidate and the scan per stored point: after 100 calls, inside the
	// ordered pass, and 50 calls into the scan the query ends in.
	calls := 0
	count := func(uint32) bool { calls++; return true }
	if _, st, err := ix.SearchContext(ctx, outside[1], 10, SearchParams{NoPrerank: true, Filter: count}); err != nil || st.TerminatedBy != "scan" {
		t.Fatalf("out-of-sample query: %v, terminated by %q; want the runaway scan", err, st.TerminatedBy)
	}
	for _, after := range []int{100, calls - len(data) + 50} {
		cctx, cancel := context.WithCancel(ctx)
		calls = 0
		_, _, err := ix.SearchContext(cctx, outside[1], 10, SearchParams{NoPrerank: true, Filter: func(uint32) bool {
			if calls++; calls == after {
				cancel()
			}
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query cancelled after %d filter calls returned %v", after, err)
		}
		pinned("cancelled Search")
	}
}
