package core

import (
	"context"
	"testing"

	"promips/internal/dataset"
)

// BenchmarkSearchCold measures Search where verification dominates: the
// e2ebench cold-large shard (Netflix generator, n=25,000, d=300, the default
// 1024-page pool against an 8,334-page vector file), k=10, with member
// queries and with out-of-sample ones (dataset.Spec.Queries), which prune
// nothing and end in the sequential scan. Beside ns/op, B/op and allocs/op it
// reports counts that repeat exactly at a fixed -benchtime Nx:
// ordered/query, the candidates handed to the lazy sort; norm-pruned/query,
// the candidates dismissed from memory (SearchStats.NormPruned);
// scans/query, the share of queries that ended in the sequential scan;
// planned/query, the share the planned scan sent there straight after the
// set-aside pass (query.plansScan);
// screened/query and exact-dots/query (see BenchmarkSearchWarm: this cold
// store is screened like a resident one); and store-reads/query, the read
// calls issued against the vector file — about one per exact dot, as a
// cold store's DotAt reads around the pool.
//
//	go test ./internal/core -run NONE -bench SearchCold -benchtime 256x
func BenchmarkSearchCold(b *testing.B) {
	const n, k = 25000, 10
	spec := dataset.Netflix()
	data := spec.Generate(n, 20210419)
	ix := buildIndex(b, data, Options{Seed: 20210419, M: 6})
	member := make([][]float32, 256)
	for i := range member {
		member[i] = data[i*(n/len(member))]
	}
	arms := []struct {
		name    string
		queries [][]float32
	}{
		{"member", member},
		{"out-of-sample", spec.Queries(64, 20210419)},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			tl := tallySearches(b, ix, arm.queries, k)
			before := ix.orig.Pager().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Search(arm.queries[i%len(arm.queries)], k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reads := ix.orig.Pager().Stats().Sub(before).FileReads
			perQuery := func(c int) float64 { return float64(c) / float64(len(arm.queries)) }
			b.ReportMetric(perQuery(tl.ordered), "ordered/query")
			b.ReportMetric(perQuery(tl.normPruned), "norm-pruned/query")
			b.ReportMetric(perQuery(tl.scans), "scans/query")
			b.ReportMetric(perQuery(tl.planned), "planned/query")
			b.ReportMetric(perQuery(tl.screened), "screened/query")
			b.ReportMetric(perQuery(tl.candidates-tl.screened), "exact-dots/query")
			b.ReportMetric(float64(reads)/float64(b.N), "store-reads/query")
		})
	}
}

// searchTally sums what a set of queries did, diagnostics included.
type searchTally struct {
	candidates, screened, ordered, normPruned, scans, planned int
}

// tallySearches answers every query once through the query struct, so the
// diagnostic counts can be read, and sums them.
func tallySearches(b *testing.B, ix *Index, queries [][]float32, k int) searchTally {
	ctx := context.Background()
	sn, err := ix.snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer sn.release()
	var tl searchTally
	for _, q := range queries {
		sc := getScratch()
		s := sn.newQuery(ctx, sc, q, k, sn.optC, sn.optP, SearchParams{})
		_, st, err := s.finish(s.run())
		tl.candidates += st.Candidates
		tl.screened += s.screened
		tl.ordered += s.ordered
		tl.normPruned += st.NormPruned
		if st.TerminatedBy == "scan" {
			tl.scans++
		}
		if s.planned {
			tl.planned++
		}
		putScratch(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tl
}

// BenchmarkSearchWarm measures Search on a resident index — the e2ebench
// warm-small shape: Netflix generator, n=17,770, d=300, a PoolSize of 8,192
// pages that holds both page files, m=6, the default c=0.9 and p=0.5, k=10
// and 256 member queries. Collection, pre-ranking and the verification
// passes are all in-memory work here, so ns/op is their cost. Beside it the
// benchmark reports counts that repeat exactly: candidates/query, the
// verifications (SearchStats.Candidates); screened/query, those the int8
// screen settled from its copy of the rows; exact-dots/query, the rest —
// each one exact inner product over a store page; ordered/query and
// norm-pruned/query (see BenchmarkSearchCold); and store-reads/query, the
// read calls against the vector file (0: the store is resident).
//
//	go test ./internal/core -run NONE -bench SearchWarm -benchtime 2048x
func BenchmarkSearchWarm(b *testing.B) {
	const n, k = 17770, 10
	data := dataset.Netflix().Generate(n, 20210419)
	ix := buildIndex(b, data, Options{Seed: 20210419, M: 6, C: 0.9, P: 0.5, PoolSize: 8192})
	queries := make([][]float32, 256)
	for i := range queries {
		queries[i] = data[i*(n/len(queries))]
	}
	// One untimed pass warms the pools and tallies the counts.
	tl := tallySearches(b, ix, queries, k)
	before := ix.orig.Pager().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(queries[i%len(queries)], k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reads := ix.orig.Pager().Stats().Sub(before).FileReads
	perQuery := func(c int) float64 { return float64(c) / float64(len(queries)) }
	b.ReportMetric(perQuery(tl.candidates), "candidates/query")
	b.ReportMetric(perQuery(tl.screened), "screened/query")
	b.ReportMetric(perQuery(tl.candidates-tl.screened), "exact-dots/query")
	b.ReportMetric(perQuery(tl.ordered), "ordered/query")
	b.ReportMetric(perQuery(tl.normPruned), "norm-pruned/query")
	b.ReportMetric(float64(reads)/float64(b.N), "store-reads/query")
}

// BenchmarkExact measures Exact — the sequential scan alone, which a
// runaway or planned Search also ends in — on 64 out-of-sample queries
// (dataset.Spec.Queries), k=10, in two arms: resident, the warm-small shape
// of BenchmarkSearchWarm (n=17,770 behind an 8,192-page pool), and cold,
// the cold-large shard shape of BenchmarkSearchCold (n=25,000 behind the
// default 1,024-page pool). Beside ns/op it reports exact-dots/query, the
// rows whose inner product the scan computed from the store — the rest the
// int8 screen settled — which repeats exactly.
//
//	go test ./internal/core -run NONE -bench Exact -benchtime 64x
func BenchmarkExact(b *testing.B) {
	const k = 10
	spec := dataset.Netflix()
	queries := spec.Queries(64, 20210419)
	arms := []struct {
		name string
		n    int
		opts Options
	}{
		{"resident", 17770, Options{Seed: 20210419, M: 6, C: 0.9, P: 0.5, PoolSize: 8192}},
		{"cold", 25000, Options{Seed: 20210419, M: 6}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			ix := buildIndex(b, spec.Generate(arm.n, 20210419), arm.opts)
			if ix.orig.Pager().Resident() != (arm.name == "resident") {
				b.Fatalf("%s arm: resident %v", arm.name, ix.orig.Pager().Resident())
			}
			dots := tallyExact(b, ix, queries, k)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Exact(ctx, queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(dots)/float64(len(queries)), "exact-dots/query")
		})
	}
}

// tallyExact answers every query once as Exact does, through the query
// struct, and returns how many rows' inner products the scans computed.
func tallyExact(b *testing.B, ix *Index, queries [][]float32, k int) int {
	sn, err := ix.snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer sn.release()
	dots := 0
	for _, q := range queries {
		sc := getScratch()
		s := sn.newQuery(context.Background(), sc, q, k, 0, 0, SearchParams{})
		s.io = nil
		err := s.scanAll()
		dots += s.st.Candidates - s.screened
		putScratch(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	return dots
}
