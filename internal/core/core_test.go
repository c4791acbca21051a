package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

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

func buildIndex(t testing.TB, data [][]float32, opts Options) *Index {
	t.Helper()
	ix, err := Build(context.Background(), data, t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// bruteTopK returns the exact top-k inner products.
func bruteTopK(data [][]float32, q []float32, k int) []Result {
	top := newTopK(k)
	for i, o := range data {
		top.offer(uint32(i), vec.Dot(o, q))
	}
	return top.results
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(context.Background(), nil, t.TempDir(), Options{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, err := Build(context.Background(), [][]float32{{1, 2}, {1}}, t.TempDir(), Options{}); err == nil {
		t.Fatal("expected error for ragged dataset")
	}
	for _, bad := range nonFinite {
		if _, err := Build(context.Background(), [][]float32{{1, 2}, {3, bad}}, t.TempDir(), Options{}); err == nil {
			t.Fatalf("expected error for a point with a %v component", bad)
		}
	}
	data := [][]float32{{1, 2}, {3, 4}}
	if _, err := Build(context.Background(), data, t.TempDir(), Options{C: 1.5}); err == nil {
		t.Fatal("expected error for c >= 1")
	}
	if _, err := Build(context.Background(), data, t.TempDir(), Options{P: -0.5}); err == nil {
		t.Fatal("expected error for p <= 0")
	}
}

func TestBuildDefaults(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := randData(r, 500, 16)
	ix := buildIndex(t, data, Options{Seed: 2})
	if ix.Len() != 500 || ix.Dim() != 16 {
		t.Fatalf("dims = (%d,%d)", ix.Len(), ix.Dim())
	}
	if ix.M() < 2 || ix.M() > 12 {
		t.Fatalf("optimized m = %d out of plausible range", ix.M())
	}
	opts := ix.Options()
	if opts.C != 0.9 || opts.P != 0.5 {
		t.Fatalf("defaults = c=%v p=%v", opts.C, opts.P)
	}
}

// nonFinite are the component values every vector entry point rejects.
var nonFinite = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

// withComponent returns a copy of v with component i set to x.
func withComponent(v []float32, i int, x float32) []float32 {
	w := vec.Clone(v)
	w[i] = x
	return w
}

func TestSearchArgumentErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := randData(r, 100, 8)
	ix := buildIndex(t, data, Options{Seed: 4, M: 4})
	if _, _, err := ix.Search(make([]float32, 7), 1); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, _, err := ix.Search(make([]float32, 8), 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	for _, bad := range nonFinite {
		if _, _, err := ix.Search(withComponent(data[0], 3, bad), 1); err == nil {
			t.Fatalf("expected error for a query with a %v component", bad)
		}
	}
}

func TestSearchReturnsKResults(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := randData(r, 1000, 20)
	ix := buildIndex(t, data, Options{Seed: 6, M: 5})
	q := randData(r, 1, 20)[0]
	for _, k := range []int{1, 5, 10, 50} {
		res, st, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != k {
			t.Fatalf("k=%d returned %d results (terminated by %s)", k, len(res), st.TerminatedBy)
		}
		// Results must be sorted by descending inner product.
		for i := 1; i < len(res); i++ {
			if res[i].IP > res[i-1].IP {
				t.Fatal("results not sorted by descending IP")
			}
		}
	}
}

func TestSearchKLargerThanN(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := randData(r, 20, 8)
	ix := buildIndex(t, data, Options{Seed: 8, M: 4})
	res, _, err := ix.Search(randData(r, 1, 8)[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("k>n returned %d results, want 20", len(res))
	}
}

// The core accuracy claim: with ratio c and probability p, the fraction of
// queries whose result is a true c-AMIP answer is at least p. We test at
// p=0.9 with 60 queries; the failure probability of the test itself (true
// success rate 0.9, observing < 0.8·60 successes) is negligible.
func TestProbabilityGuaranteeK1(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data := randData(r, 2000, 24)
	ix := buildIndex(t, data, Options{Seed: 10, C: 0.9, P: 0.9, M: 6})
	const queries = 60
	ok := 0
	for trial := 0; trial < queries; trial++ {
		q := randData(r, 1, 24)[0]
		res, _, err := ix.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		exact := bruteTopK(data, q, 1)[0]
		if exact.IP <= 0 {
			ok++ // degenerate query: any answer is acceptable for the ratio
			continue
		}
		if res[0].IP >= ix.opts.C*exact.IP {
			ok++
		}
	}
	if frac := float64(ok) / queries; frac < 0.8 {
		t.Fatalf("c-AMIP success rate %.2f < 0.8 (guarantee p=0.9)", frac)
	}
}

func TestProbabilityGuaranteeK10(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	data := randData(r, 1500, 16)
	ix := buildIndex(t, data, Options{Seed: 12, C: 0.8, P: 0.9, M: 6})
	const queries = 40
	okAll := 0
	for trial := 0; trial < queries; trial++ {
		q := randData(r, 1, 16)[0]
		res, _, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		exact := bruteTopK(data, q, 10)
		good := true
		for i := range res {
			if exact[i].IP > 0 && res[i].IP < ix.opts.C*exact[i].IP {
				good = false
				break
			}
		}
		if good {
			okAll++
		}
	}
	if frac := float64(okAll) / queries; frac < 0.7 {
		t.Fatalf("c-k-AMIP success rate %.2f < 0.7", frac)
	}
}

func TestSearchIncrementalGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	data := randData(r, 800, 16)
	ix := buildIndex(t, data, Options{Seed: 14, C: 0.9, P: 0.9, M: 5})
	ok := 0
	const queries = 30
	for trial := 0; trial < queries; trial++ {
		q := randData(r, 1, 16)[0]
		res, _, err := ix.SearchIncremental(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		exact := bruteTopK(data, q, 1)[0]
		if exact.IP <= 0 || res[0].IP >= 0.9*exact.IP {
			ok++
		}
	}
	if frac := float64(ok) / queries; frac < 0.8 {
		t.Fatalf("incremental success rate %.2f", frac)
	}
}

// Condition A must fire when the dataset contains a point whose inner
// product with the query is overwhelming (e.g. the query equals the
// max-norm point): then ‖oM‖²+‖q‖²−2⟨oi,q⟩/c = 2‖oM‖²(1−1/c) < 0.
func TestConditionATerminatesEarly(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	data := randData(r, 1000, 12)
	// Make point 0 the max-norm point by a wide margin.
	for j := range data[0] {
		data[0][j] *= 20
	}
	ix := buildIndex(t, data, Options{Seed: 16, C: 0.9, P: 0.5, M: 5})
	q := vec.Clone(data[0])
	res, st, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 0 {
		t.Fatalf("query = max-norm point, result = %d", res[0].ID)
	}
	if st.TerminatedBy != "A" {
		t.Fatalf("terminated by %q, want Condition A", st.TerminatedBy)
	}
	if st.Candidates >= ix.Len() {
		t.Fatalf("Condition A did not prune: %d candidates", st.Candidates)
	}
}

func TestSearchStatsSanity(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	data := randData(r, 1200, 16)
	ix := buildIndex(t, data, Options{Seed: 18, M: 5})
	q := randData(r, 1, 16)[0]
	_, st, err := ix.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.PageAccesses <= 0 {
		t.Fatal("expected positive page accesses")
	}
	if st.Candidates <= 0 || st.Candidates > ix.Len() {
		t.Fatalf("candidates = %d", st.Candidates)
	}
	if st.GroupsProbed <= 0 {
		t.Fatal("Quick-Probe probed no groups")
	}
	if st.Radius <= 0 {
		t.Fatalf("radius = %v", st.Radius)
	}
	if st.TerminatedBy == "" {
		t.Fatal("termination reason missing")
	}
}

func TestSearchDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	data := randData(r, 600, 12)
	ix := buildIndex(t, data, Options{Seed: 20, M: 5})
	q := randData(r, 1, 12)[0]
	a, _, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same query produced different results")
		}
	}
}

// TestExactMatchesBruteForce: Exact returns the brute-force top-k over the
// live points — the same inner products bit for bit (vec.Dot), and the same
// ids wherever brute force has no tie at a rank — on a resident store and on
// a cold one (an 8-page pool, a 32-page store), at k = 1, 10 and 150, with a
// tombstoned point among the best. Its scan settles most rows with the int8
// screen, which must skip only rows that cannot enter the top-k: 200 near
// copies of one point, and a query beside it, put a crowd of rows within a
// hair of the k-th.
func TestExactMatchesBruteForce(t *testing.T) {
	const n, d = 2000, 16
	r := rand.New(rand.NewSource(21))
	data := randData(r, n, d)
	for i := n - 200; i < n; i++ {
		for j := range data[i] {
			data[i][j] = data[0][j] * (1 + 1e-4*float32(r.NormFloat64()))
		}
	}
	queries := randData(r, 5, d)
	for j := range queries[4] {
		queries[4][j] = data[0][j] + 0.01*float32(r.NormFloat64())
	}
	// The best point of the first query is deleted.
	dead := bruteTopK(data, queries[0], 1)[0].ID
	for _, pool := range []int{0, 8} {
		ix := buildIndex(t, data, Options{Seed: 22, M: 4, PoolSize: pool})
		if resident := ix.orig.Pager().Resident(); resident != (pool == 0) {
			t.Fatalf("pool %d: resident %v", pool, resident)
		}
		if !ix.Delete(dead) {
			t.Fatalf("Delete(%d) found no point", dead)
		}
		for qi, q := range queries {
			// Every live point by inner product, best first.
			all := newTopK(n - 1)
			for id, o := range data {
				if uint32(id) != dead {
					all.offer(uint32(id), vec.Dot(o, q))
				}
			}
			for _, k := range []int{1, 10, 150} {
				got, err := ix.Exact(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("pool %d query %d k=%d: %d results", pool, qi, k, len(got))
				}
				for i, res := range got {
					want := all.results[i]
					if math.Float64bits(res.IP) != math.Float64bits(want.IP) {
						t.Fatalf("pool %d query %d k=%d: Exact[%d].IP = %v, want %v", pool, qi, k, i, res.IP, want.IP)
					}
					tied := i > 0 && all.results[i-1].IP == want.IP || all.results[i+1].IP == want.IP
					if !tied && res.ID != want.ID {
						t.Fatalf("pool %d query %d k=%d: Exact[%d].ID = %d, want %d", pool, qi, k, i, res.ID, want.ID)
					}
				}
			}
		}
	}
}

func TestHigherPMoreWork(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	data := randData(r, 2000, 16)
	q := randData(r, 1, 16)[0]
	var accLow, accHigh int64
	// Average page accesses over a few queries for p=0.3 vs p=0.95.
	lo := buildIndex(t, data, Options{Seed: 24, P: 0.3, M: 6})
	hi := buildIndex(t, data, Options{Seed: 24, P: 0.95, M: 6})
	for trial := 0; trial < 8; trial++ {
		qq := q
		if trial > 0 {
			qq = randData(r, 1, 16)[0]
		}
		_, st1, err := lo.Search(qq, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, st2, err := hi.Search(qq, 10)
		if err != nil {
			t.Fatal(err)
		}
		accLow += st1.PageAccesses
		accHigh += st2.PageAccesses
	}
	if accHigh < accLow {
		t.Fatalf("p=0.95 should not access fewer pages than p=0.3: %d vs %d", accHigh, accLow)
	}
}

func TestSizesBreakdown(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	data := randData(r, 400, 12)
	ix := buildIndex(t, data, Options{Seed: 26, M: 5})
	s := ix.Sizes()
	if s.RingDir <= 0 || s.Projected <= 0 || s.QuickProbe <= 0 || s.Norms <= 0 || s.Sketch <= 0 {
		t.Fatalf("size breakdown has empty components: %+v", s)
	}
	if s.Total() != s.RingDir+s.Projected+s.QuickProbe+s.Norms+s.Sketch {
		t.Fatal("Total() inconsistent")
	}
}

func TestTopK(t *testing.T) {
	top := newTopK(3)
	if _, full := top.kth(); full {
		t.Fatal("empty topK reports full")
	}
	top.offer(1, 5)
	top.offer(2, 9)
	top.offer(3, 1)
	top.offer(4, 7)
	top.offer(5, 0.5)
	if len(top.results) != 3 {
		t.Fatalf("len = %d", len(top.results))
	}
	want := []Result{{2, 9}, {4, 7}, {1, 5}}
	for i, w := range want {
		if top.results[i] != w {
			t.Fatalf("results[%d] = %+v, want %+v", i, top.results[i], w)
		}
	}
	kth, full := top.kth()
	if !full || kth != 5 {
		t.Fatalf("kth = %v %v", kth, full)
	}
	// Offer below the kth best: no change.
	top.offer(9, 2)
	if top.results[2].ID != 1 {
		t.Fatal("offer below kth modified results")
	}
}

func TestQuickProbeZeroQuery(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	data := randData(r, 300, 8)
	ix := buildIndex(t, data, Options{Seed: 28, M: 4})
	q := make([]float32, 8) // all zeros: every IP is 0, any point is c-AMIP
	res, _, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("zero query returned %d results", len(res))
	}
}
