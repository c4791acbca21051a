package core

import (
	"context"
	"testing"

	"promips/internal/dataset"
)

// BenchmarkBuild times index construction on one shard of the e2ebench
// cold-large shape (Netflix generator, n=25,000, d=300, M=6): projections,
// norms and sign codes, the PQ sketch, iDistance and the vector store, into
// a fresh directory per iteration. Build runs on GOMAXPROCS workers, so the
// number to read is points/s across a -cpu list:
//
//	go test ./internal/core -run NONE -bench '^BenchmarkBuild$' -benchtime 3x -cpu 1,2,4
func BenchmarkBuild(b *testing.B) {
	const n = 25000
	data := dataset.Netflix().Generate(n, 20210419)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Build(ctx, data, b.TempDir(), Options{Seed: 20210419, M: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ix.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
