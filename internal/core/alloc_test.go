package core

import (
	"context"
	"runtime/debug"
	"testing"

	"promips/internal/dataset"
)

// TestSearchSteadyStateAllocs pins the scratch-pool contract: once warm, a
// Search allocates only the result slice it hands to the caller (plus a
// handful of slack for buffer-pool churn) — not the ~1000 allocations per
// query the pre-scratch implementation made. GC is paused so a collection
// mid-measurement cannot empty the sync.Pool and charge the rebuild to one
// unlucky run.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without it")
	}
	data := dataset.Netflix().Generate(1000, 5)
	ix, err := Build(context.Background(), data, t.TempDir(), Options{M: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	queries := data[:16]
	for _, q := range queries {
		if _, _, err := ix.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		q := queries[i%len(queries)]
		i++
		if _, _, err := ix.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation is inherent (the returned results slice); allow a few
	// more for pool-eviction rereads. The pre-PR baseline was ~1000.
	if avg > 8 {
		t.Fatalf("steady-state Search allocs/op = %.1f, want <= 8", avg)
	}
}

// TestColdSearchAllocs is TestSearchSteadyStateAllocs on a buffer pool
// smaller than the vector store, where every verification that reads its
// row misses: a miss reads around the pool into the query scratch's one-page
// readBuf, reused from query to query, so a cold Search allocates no more
// than a warm one (when every miss allocated its page buffer and pool entry,
// that was 90 allocations per query here).
func TestColdSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without it")
	}
	data := dataset.Netflix().Generate(1000, 5)
	ix, err := Build(context.Background(), data, t.TempDir(), Options{M: 6, Seed: 5, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.orig.Pager().Resident() {
		t.Fatalf("a %d-page pool holds the %d-page store", ix.opts.PoolSize, ix.orig.Pager().NumPages())
	}

	queries := data[:16]
	for _, q := range queries {
		if _, _, err := ix.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := ix.orig.Pager().Stats()
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		q := queries[i%len(queries)]
		i++
		if _, _, err := ix.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	})
	if misses := ix.orig.Pager().Stats().Sub(before).Misses; misses < 201*10 {
		t.Fatalf("only %d store misses over 201 queries: the pool is not cold", misses)
	}
	if avg > 8 {
		t.Fatalf("steady-state cold Search allocs/op = %.1f, want <= 8", avg)
	}
}
