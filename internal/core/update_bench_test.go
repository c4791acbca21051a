package core

// Contention benchmarks pinning the Insert critical-section work: clone
// and ‖v‖² are computed BEFORE the exclusive lock is taken, so concurrent
// searchers (who only need the read lock for a snapshot capture) are not
// serialized behind per-insert O(d) work. Compare:
//
//	go test ./internal/core -bench 'Insert(Contended)?$' -benchtime 2s
//
// before and after touching the insert path; the contended variant is the
// one that regresses if prep work creeps back under the lock.

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"promips/internal/dataset"
	"promips/internal/fsutil"
)

// benchInsertIndex builds an index whose journal never fsyncs (fsutil.NoSync
// isolates lock contention from fsync latency) with freezing on, so the
// benchmark crosses freeze boundaries like a real insert stream.
func benchInsertIndex(b *testing.B, d int) (*Index, [][]float32) {
	r := rand.New(rand.NewSource(1234))
	data := randData(r, 2000, d)
	ix := buildIndex(b, data, Options{Seed: 5, M: 6, SegmentEntries: 1024}.WithFS(fsutil.NoSync))
	return ix, randData(r, 4096, d)
}

func BenchmarkInsert(b *testing.B) {
	ix, points := benchInsertIndex(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(points[i%len(points)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertContended measures insert latency while GOMAXPROCS-1
// searcher goroutines run flat out. With prep hoisted out of the critical
// section the searchers cost inserts almost nothing (they hold the read
// lock only long enough to capture a snapshot); prep creeping back under
// the exclusive lock multiplies the reported ns/op.
func BenchmarkInsertContended(b *testing.B) {
	ix, points := benchInsertIndex(b, 64)
	queries := points[:64]

	var stop atomic.Bool
	done := make(chan struct{})
	searchers := 3
	for w := 0; w < searchers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			i := w
			for !stop.Load() {
				if _, _, err := ix.Search(queries[i%len(queries)], 10); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		}(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(points[i%len(points)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	for w := 0; w < searchers; w++ {
		<-done
	}
}

// BenchmarkSearchBacklog is search latency against the un-compacted
// backlog, member queries, k=10, on the Netflix generator at d=300 with a
// resident pool and the default SegmentEntries (the backlog is inserted
// through fsutil.NoSync so setup does not pay one fsync per entry): 8,000
// points with no backlog, 4,096 entries (one frozen segment) and 12,288
// (three), and one shard of the e2e benchmark's mixed-updates shape, 8,885
// points under 6,144 entries. Beside ns/op it reports counts that are a
// pure function of the inputs, so they repeat exactly where ns/op does not:
// float-dots/query, the backlog entries whose inner product scanMem
// computed; screened/query, the ones it did not; and dots/query, the full
// d-dimensional inner products one query takes — verified disk candidates
// plus float-dots.
//
//	go test ./internal/core -run NONE -bench SearchBacklog -benchtime 2000x
func BenchmarkSearchBacklog(b *testing.B) {
	const k = 10
	base := dataset.Netflix().Generate(8000+12288, 20210419)
	arms := []struct {
		name    string
		n       int
		backlog int
		all     [][]float32
	}{
		{"0", 8000, 0, base},
		{"4096", 8000, 4096, base},
		{"12288", 8000, 12288, base},
		{"mixed-updates", 8885, 6144, dataset.Netflix().Generate(8885+6144, 20210419)},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			queries := arm.all[:64]
			ix := buildIndex(b, arm.all[:arm.n], Options{Seed: 5, M: 6, PoolSize: 8192}.WithFS(fsutil.NoSync))
			for _, v := range arm.all[arm.n : arm.n+arm.backlog] {
				if _, err := ix.Insert(v); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			sn, err := ix.snapshot()
			if err != nil {
				b.Fatal(err)
			}
			dots, screened := 0, 0
			for _, q := range queries {
				// The in-query scan starts from an empty accumulator too, so
				// this replays exactly what the search's scan skips.
				sc := getScratch()
				pruned, err := sn.newQuery(ctx, sc, q, k, 0, 0, SearchParams{}).scanMem()
				putScratch(sc)
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := sn.search(ctx, q, k, SearchParams{})
				if err != nil {
					b.Fatal(err)
				}
				screened += pruned
				dots += st.Candidates + arm.backlog - pruned
			}
			sn.release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Search(queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
			perQuery := func(c int) float64 { return float64(c) / float64(len(queries)) }
			b.ReportMetric(perQuery(arm.backlog*len(queries)-screened), "float-dots/query")
			b.ReportMetric(perQuery(screened), "screened/query")
			b.ReportMetric(perQuery(dots), "dots/query")
		})
	}
}
