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
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"promips/internal/dataset"
	"promips/internal/fsutil"
	"promips/internal/vec"
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
// backlog: one shard of the e2e benchmark's mixed-updates shape (Netflix
// generator, d=300, resident pool, default SegmentEntries so 12,288 entries
// are three frozen segments; the backlog is inserted through fsutil.NoSync
// so setup does not pay 12,288 fsyncs), member queries, k=10. dots/query counts the
// full d-dimensional inner products one query takes — verified disk
// candidates plus backlog entries scanMem did not prune — and is a pure
// function of the inputs, so it repeats exactly where ns/op does not.
//
//	go test ./internal/core -run NONE -bench SearchBacklog -benchtime 2000x
func BenchmarkSearchBacklog(b *testing.B) {
	const n, k = 8000, 10
	all := dataset.Netflix().Generate(n+12288, 20210419)
	queries := all[:64]
	for _, backlog := range []int{0, 4096, 12288} {
		b.Run(fmt.Sprint(backlog), func(b *testing.B) {
			ix := buildIndex(b, all[:n], Options{Seed: 5, M: 6, PoolSize: 8192}.WithFS(fsutil.NoSync))
			for _, v := range all[n : n+backlog] {
				if _, err := ix.Insert(v); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			sn, err := ix.snapshot()
			if err != nil {
				b.Fatal(err)
			}
			dots := 0
			for _, q := range queries {
				// The in-query scan starts from an empty accumulator too, so
				// this replays exactly the prunes the search makes.
				pruned, err := sn.scanMem(ctx, q, vec.Norm2Sq(q), sn.memLUT(q, new([]float64)), newTopK(k), nil)
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := sn.search(ctx, q, k, SearchParams{})
				if err != nil {
					b.Fatal(err)
				}
				dots += st.Candidates + backlog - pruned
			}
			sn.release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Search(queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(dots)/float64(len(queries)), "dots/query")
		})
	}
}
