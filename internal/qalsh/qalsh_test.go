package qalsh

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"promips/internal/pager"
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

func TestParams(t *testing.T) {
	w, p1, p2, alpha, k := Params(2.0, 1/math.E, 0.01)
	if math.Abs(w-2.7190) > 1e-3 {
		t.Errorf("w = %v, want ~2.719 (QALSH paper, c=2)", w)
	}
	if p1 <= p2 {
		t.Errorf("p1=%v must exceed p2=%v", p1, p2)
	}
	if alpha <= p2 || alpha >= p1 {
		t.Errorf("alpha=%v must lie in (p2,p1)=(%v,%v)", alpha, p2, p1)
	}
	if k < 10 || k > 500 {
		t.Errorf("K = %d implausible", k)
	}
	// Tighter budget (smaller beta) needs more tables.
	_, _, _, _, k2 := Params(2.0, 1/math.E, 0.001)
	if k2 <= k {
		t.Errorf("smaller beta should need more tables: %d <= %d", k2, k)
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, t.TempDir(), Config{}); err == nil {
		t.Fatal("expected error for empty data")
	}
}

func TestBuildProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := randData(r, 500, 16)
	idx, err := Build(data, t.TempDir(), Config{Seed: 2, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Tables() <= 0 || idx.Threshold() <= 0 || idx.Threshold() > idx.Tables() {
		t.Fatalf("K=%d l=%d", idx.Tables(), idx.Threshold())
	}
	if idx.IndexSizeBytes() <= 0 {
		t.Fatal("zero index size")
	}
	// Each table must be sorted by projection on disk.
	for tb := 0; tb < idx.Tables(); tb++ {
		prev := math.Inf(-1)
		for j := 0; j < 500; j++ {
			p, _, err := idx.reader(nil).entry(tb, j)
			if err != nil {
				t.Fatal(err)
			}
			if p < prev {
				t.Fatalf("table %d not sorted at %d", tb, j)
			}
			prev = p
		}
	}
}

func TestLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := randData(r, 300, 8)
	idx, err := Build(data, t.TempDir(), Config{Seed: 4, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// lowerBound(x) must be the first j with proj[j] >= x.
	for _, x := range []float64{-100, -1, 0, 1, 100} {
		j, err := idx.reader(nil).lowerBound(0, x)
		if err != nil {
			t.Fatal(err)
		}
		if j > 0 {
			p, _, _ := idx.reader(nil).entry(0, j-1)
			if p >= x {
				t.Fatalf("lowerBound(%v)=%d but entry %d has proj %v", x, j, j-1, p)
			}
		}
		if j < 300 {
			p, _, _ := idx.reader(nil).entry(0, j)
			if p < x {
				t.Fatalf("lowerBound(%v)=%d but proj there is %v", x, j, p)
			}
		}
	}
}

// On unit-norm data (the regime H2-ALSH feeds QALSH), the returned nearest
// neighbor must be a c-ANN answer for the vast majority of queries.
func TestSearchCANNQuality(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, d = 2000, 24
	data := randData(r, n, d)
	// Normalize to the unit sphere, mimicking the QNF-transformed input.
	for _, v := range data {
		s := 1 / vec.Norm2(v)
		for j := range v {
			v[j] = float32(float64(v[j]) * s)
		}
	}
	idx, err := Build(data, t.TempDir(), Config{Seed: 6, C: 2.0, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	ok, trials := 0, 25
	for trial := 0; trial < trials; trial++ {
		q := randData(r, 1, d)[0]
		s := 1 / vec.Norm2(q)
		for j := range q {
			q[j] = float32(float64(q[j]) * s)
		}
		verify := func(id uint32) (float64, error) {
			return vec.L2Dist(data[id], q), nil
		}
		got, err := idx.Search(q, 1, nil, verify)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			continue
		}
		// Exact NN distance.
		best := math.Inf(1)
		for _, o := range data {
			if dd := vec.L2Dist(o, q); dd < best {
				best = dd
			}
		}
		if got[0].Dist <= 2.0*best+1e-9 {
			ok++
		}
	}
	if frac := float64(ok) / float64(trials); frac < 0.85 {
		t.Fatalf("c-ANN success rate %.2f < 0.85", frac)
	}
}

func TestSearchTopKSortedAndUnique(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := randData(r, 800, 12)
	idx, err := Build(data, t.TempDir(), Config{Seed: 8, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := randData(r, 1, 12)[0]
	verify := func(id uint32) (float64, error) { return vec.L2Dist(data[id], q), nil }
	got, err := idx.Search(q, 10, nil, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 10 {
		t.Fatalf("got %d results", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatal("results not sorted by distance")
	}
	seen := make(map[uint32]bool)
	for _, c := range got {
		if seen[c.ID] {
			t.Fatalf("duplicate id %d", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestSearchQueryDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data := randData(r, 100, 8)
	idx, err := Build(data, t.TempDir(), Config{Seed: 10, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if _, err := idx.Search(make([]float32, 7), 1, nil, nil); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestPageAccessesGrowWithWork(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	data := randData(r, 1500, 12)
	idx, err := Build(data, t.TempDir(), Config{Seed: 12, PageSize: 512, PoolSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := randData(r, 1, 12)[0]
	var io pager.IOStats
	verify := func(id uint32) (float64, error) { return vec.L2Dist(data[id], q), nil }
	if _, err := idx.Search(q, 10, &io, verify); err != nil {
		t.Fatal(err)
	}
	if io.Pages() == 0 {
		t.Fatal("search touched no pages")
	}
}
