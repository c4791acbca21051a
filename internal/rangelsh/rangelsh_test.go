package rangelsh

import (
	"math"
	"math/rand"
	"testing"

	"promips/exact"
	"promips/internal/vec"
)

func randData(r *rand.Rand, n, d int) [][]float32 {
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		scale := float32(0.2 + 2*r.Float64())
		for j := range v {
			v[j] *= scale
		}
		data[i] = v
	}
	return data
}

func build(t testing.TB, data [][]float32, cfg Config) *Index {
	t.Helper()
	ix, err := Build(data, t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, t.TempDir(), Config{}); err == nil {
		t.Fatal("expected error for empty data")
	}
}

func TestBucketLayoutIsPartition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := randData(r, 1000, 12)
	ix := build(t, data, Config{Seed: 2, Partitions: 8, PageSize: 1024})
	total := 0
	prevEnd := 0
	for _, b := range ix.buckets {
		if b.startPos != prevEnd {
			t.Fatalf("bucket gap: start %d after end %d", b.startPos, prevEnd)
		}
		prevEnd = b.startPos + b.count
		total += b.count
	}
	if total != 1000 {
		t.Fatalf("buckets cover %d of 1000 points", total)
	}
	if ix.Buckets() < 8 {
		t.Fatalf("expected many buckets, got %d", ix.Buckets())
	}
}

func TestSubMaxDescending(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := randData(r, 500, 8)
	ix := build(t, data, Config{Seed: 4, Partitions: 10, PageSize: 512})
	for j := 1; j < len(ix.subMax); j++ {
		if ix.subMax[j] > ix.subMax[j-1]+1e-9 {
			t.Fatal("sub-dataset max norms must descend with rank")
		}
	}
	// Every point's norm is bounded by its sub-dataset's U_j. Recover sub
	// membership through the buckets.
	for _, b := range ix.buckets {
		for pos := b.startPos; pos < b.startPos+b.count; pos++ {
			id := ix.order[pos]
			if vec.Norm2(data[id]) > ix.subMax[b.sub]+1e-6 {
				t.Fatalf("point %d exceeds its sub-dataset max norm", id)
			}
		}
	}
}

func TestSimpleLSHTransformUnitNorm(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		d := 2 + r.Intn(20)
		o := make([]float32, d)
		for j := range o {
			o[j] = float32(r.NormFloat64())
		}
		norm := vec.Norm2(o)
		u := norm * (1 + r.Float64())
		dst := make([]float32, d+1)
		simpleLSHTransform(o, norm, u, dst)
		if got := vec.Norm2(dst); math.Abs(got-1) > 1e-5 {
			t.Fatalf("transform norm = %v, want 1", got)
		}
	}
}

func TestSearchQuality(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data := randData(r, 2000, 16)
	ix := build(t, data, Config{Seed: 7, Partitions: 16, PageSize: 1024})
	var ratioSum float64
	const queries = 15
	for trial := 0; trial < queries; trial++ {
		q := randData(r, 1, 16)[0]
		got, st, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 10 {
			t.Fatalf("returned %d results", len(got))
		}
		if st.PageAccesses == 0 || st.Candidates == 0 {
			t.Fatalf("stats empty: %+v", st)
		}
		gt := exact.TopK(data, q, 10)
		for i := range got {
			if gt[i].IP > 0 {
				ratioSum += got[i].IP / gt[i].IP
			} else {
				ratioSum++
			}
		}
	}
	if avg := ratioSum / float64(queries*10); avg < 0.8 {
		t.Fatalf("Range-LSH overall ratio %.3f too low", avg)
	}
}

func TestSearchZeroQueryAndErrors(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := randData(r, 200, 8)
	ix := build(t, data, Config{Seed: 9, Partitions: 4, PageSize: 512})
	got, _, err := ix.Search(make([]float32, 8), 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("zero query: %v, %d results", err, len(got))
	}
	if _, _, err := ix.Search(make([]float32, 7), 5); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, _, err := ix.Search(make([]float32, 8), 0); err == nil {
		t.Fatal("expected k error")
	}
}

func TestCandidateBudgetRespected(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	data := randData(r, 3000, 12)
	ix := build(t, data, Config{Seed: 11, Partitions: 16, MaxCandidatesFrac: 0.05, PageSize: 1024})
	q := randData(r, 1, 12)[0]
	_, st, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Budget is max(0.05n, 10k) = 150; allow one bucket of overshoot.
	if st.Candidates > 150+300 {
		t.Fatalf("candidate budget exceeded: %d", st.Candidates)
	}
}

func TestIndexSizeSmall(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	data := randData(r, 1000, 16)
	ix := build(t, data, Config{Seed: 13, PageSize: 1024})
	// Codes are 2 bytes/point: the index should be a small fraction of the
	// raw data (1000×16×4 = 64KB).
	if ix.IndexSizeBytes() <= 0 || ix.IndexSizeBytes() > 64*1024 {
		t.Fatalf("index size %d out of expected range", ix.IndexSizeBytes())
	}
}
