package pq

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
		data[i] = v
	}
	return data
}

// smallCfg keeps builds fast in tests.
func smallCfg(seed int64) Config {
	return Config{
		Subspaces: 4, Centroids: 16, Cells: 8, ProbeCells: 4,
		TrainSample: 2000, MaxIter: 6, PageSize: 1024, Seed: seed,
	}
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

func TestHouseholdersPreserveNorm(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		d := 4 + r.Intn(30)
		vs := householders(r, 1+r.Intn(8), d)
		x := make([]float64, d)
		var nrm float64
		for j := range x {
			x[j] = r.NormFloat64()
			nrm += x[j] * x[j]
		}
		applyHouseholders(vs, x)
		var after float64
		for _, v := range x {
			after += v * v
		}
		if math.Abs(after-nrm) > 1e-9*(1+nrm) {
			t.Fatalf("rotation changed norm: %v -> %v", nrm, after)
		}
	}
}

func TestRotationMatrixMatchesHouseholders(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := randData(r, 300, 11) // d+1 = 12 = 4 subspaces × 3
	ix := build(t, data, smallCfg(3))
	// readRotateResidual must equal applying the same rotation directly.
	// We verify R is orthonormal: rotating any vector preserves its norm.
	q := randData(r, 1, 11)[0]
	qn := vec.Norm2(q)
	qt := qnfTransform(q, qn, ix.lambda, ix.padded)
	for c := 0; c < ix.Cells(); c++ {
		rot, _, _, err := ix.readRotateResidual(c, qt, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := make([]float32, ix.padded)
		for j := range res {
			res[j] = qt[j] - ix.cellCents[c][j]
		}
		if diff := math.Abs(vec.Norm2(rot) - vec.Norm2(res)); diff > 1e-4 {
			t.Fatalf("cell %d rotation not orthonormal: norm drift %v", c, diff)
		}
	}
}

func TestQNFTransformIdentity(t *testing.T) {
	// In the transformed space, dis²(o',q') = 2 − 2⟨o,q⟩/(λ‖q‖).
	r := rand.New(rand.NewSource(4))
	const d = 9
	data := randData(r, 50, d)
	var lambda float64
	for _, o := range data {
		if n := vec.Norm2(o); n > lambda {
			lambda = n
		}
	}
	padded := 12
	q := randData(r, 1, d)[0]
	nq := vec.Norm2(q)
	qt := qnfTransform(q, nq, lambda, padded)
	// Query side uses q/‖q‖ with no tail; emulate Search's construction.
	for j := range qt {
		qt[j] = 0
	}
	for j, v := range q {
		qt[j] = float32(float64(v) / nq)
	}
	for _, o := range data {
		ot := qnfTransform(o, vec.Norm2(o), lambda, padded)
		lhs := vec.L2DistSq(ot, qt)
		rhs := 2 - 2*vec.Dot(o, q)/(lambda*nq)
		if math.Abs(lhs-rhs) > 1e-4 {
			t.Fatalf("QNF identity violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestSearchQuality(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := randData(r, 2000, 15)
	cfg := smallCfg(6)
	cfg.Centroids = 32
	cfg.ProbeCells = 8
	ix := build(t, data, cfg)
	var recallSum float64
	const queries = 15
	for trial := 0; trial < queries; trial++ {
		q := randData(r, 1, 15)[0]
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
		gtSet := make(map[uint32]bool)
		for _, g := range gt {
			gtSet[g.ID] = true
		}
		hits := 0
		for _, g := range got {
			if gtSet[g.ID] {
				hits++
			}
		}
		recallSum += float64(hits) / 10
	}
	if avg := recallSum / queries; avg < 0.4 {
		t.Fatalf("PQ recall %.3f implausibly low even for a quantized method", avg)
	}
}

func TestApproxIPWithinSlack(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := randData(r, 800, 15)
	ix := build(t, data, smallCfg(8))
	q := randData(r, 1, 15)[0]
	got, _, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Approximate IPs should correlate with the true IPs: the top result's
	// true inner product should be positive-ish when the approx is large.
	for _, g := range got {
		trueIP := vec.Dot(data[g.ID], q)
		if math.Abs(g.IP-trueIP) > 0.7*(math.Abs(trueIP)+1) {
			t.Logf("warning: ADC estimate %v vs true %v (quantization error)", g.IP, trueIP)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data := randData(r, 200, 7)
	ix := build(t, data, smallCfg(10))
	if _, _, err := ix.Search(make([]float32, 6), 1); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, _, err := ix.Search(make([]float32, 7), 0); err == nil {
		t.Fatal("expected k error")
	}
	got, _, err := ix.Search(make([]float32, 7), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("zero query: %v, %d results", err, len(got))
	}
}

func TestInvertedListsCoverAllPoints(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	data := randData(r, 500, 11)
	cfg := smallCfg(12)
	cfg.ProbeCells = cfg.Cells // probe everything
	ix := build(t, data, cfg)
	q := randData(r, 1, 11)[0]
	_, st, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 500 {
		t.Fatalf("probing all cells scanned %d of 500 points", st.Candidates)
	}
}

func TestIndexSizeIncludesRotations(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	data := randData(r, 400, 11)
	ix := build(t, data, smallCfg(14))
	// Rotation matrices alone: cells × D² × 4 bytes.
	rotBytes := int64(ix.Cells()) * int64(ix.padded) * int64(ix.padded) * 4
	if ix.IndexSizeBytes() < rotBytes {
		t.Fatalf("index size %d omits rotation matrices (%d)", ix.IndexSizeBytes(), rotBytes)
	}
}
