package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"promips/internal/dataset"
	"promips/internal/vec"
)

// Property: Search returns sorted, duplicate-free results drawn from the
// live id space, never exceeding the exact maximum.
func TestPropertySearchWellFormed(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	data := randData(r, 600, 12)
	ix := buildIndex(t, data, Options{Seed: 72, M: 5})
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randData(rr, 1, 12)[0]
		k := 1 + rr.Intn(20)
		res, _, err := ix.Search(q, k)
		if err != nil || len(res) != k {
			return false
		}
		seen := make(map[uint32]bool)
		exactBest := bruteTopK(data, q, 1)[0].IP
		for i, rres := range res {
			if int(rres.ID) >= len(data) || seen[rres.ID] {
				return false
			}
			seen[rres.ID] = true
			if i > 0 && res[i-1].IP < rres.IP {
				return false
			}
			if rres.IP > exactBest+1e-9 {
				return false
			}
			// Reported IPs must be exact.
			if diff := rres.IP - vec.Dot(data[rres.ID], q); diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Epsilon override must produce a working index.
func TestEpsilonOverride(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	data := randData(r, 300, 10)
	ix := buildIndex(t, data, Options{Seed: 74, M: 4, Epsilon: 0.5})
	res, _, err := ix.Search(randData(r, 1, 10)[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("returned %d results", len(res))
	}
}

// A dataset containing the origin exercises Quick-Probe's zero-upper-bound
// branch (‖o‖₁+‖q‖₁ = 0 when both are the origin).
func TestOriginPointAndOriginQuery(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	data := randData(r, 200, 8)
	for j := range data[0] {
		data[0][j] = 0
	}
	ix := buildIndex(t, data, Options{Seed: 76, M: 4})
	res, _, err := ix.Search(make([]float32, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("origin query returned %d results", len(res))
	}
}

// The paper's c-k-AMIP extension: every returned position i must satisfy
// the ratio against the exact i-th MIP point with probability ≥ p. Checked
// in aggregate at p=0.9 across positions.
func TestPerPositionGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	data := randData(r, 1000, 16)
	ix := buildIndex(t, data, Options{Seed: 78, C: 0.8, P: 0.9, M: 5})
	const k, queries = 5, 20
	okPositions, totPositions := 0, 0
	for trial := 0; trial < queries; trial++ {
		q := randData(r, 1, 16)[0]
		res, _, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		ex := bruteTopK(data, q, k)
		for i := 0; i < k; i++ {
			totPositions++
			if ex[i].IP <= 0 || res[i].IP >= 0.8*ex[i].IP {
				okPositions++
			}
		}
	}
	if frac := float64(okPositions) / float64(totPositions); frac < 0.8 {
		t.Fatalf("per-position guarantee rate %.2f", frac)
	}
}

func TestSearchIncrementalErrors(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	ix := buildIndex(t, randData(r, 100, 8), Options{Seed: 80, M: 4})
	if _, _, err := ix.SearchIncremental(make([]float32, 5), 1); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, _, err := ix.SearchIncremental(make([]float32, 8), -1); err == nil {
		t.Fatal("expected k error")
	}
	for _, bad := range nonFinite {
		if _, _, err := ix.SearchIncremental(withComponent(make([]float32, 8), 0, bad), 1); err == nil {
			t.Fatalf("expected error for a query with a %v component", bad)
		}
	}
}

func TestExactDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	ix := buildIndex(t, randData(r, 50, 8), Options{Seed: 82, M: 4})
	if _, err := ix.Exact(context.Background(), make([]float32, 3), 1); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	for _, bad := range nonFinite {
		if _, err := ix.Exact(context.Background(), withComponent(make([]float32, 8), 7, bad), 1); err == nil {
			t.Fatalf("expected error for a query with a %v component", bad)
		}
	}
}

// TestScanCancelledWithin256Rows: the sequential scan checks its context
// every 256 rows, on a resident store and on a cold one. A Search that ends
// in the scan, cancelled by its filter while the scan admits a chosen row,
// returns context.Canceled having admitted fewer than 256 rows after it.
// Exact, whose scan is the same loop, checks its context once on entry and
// once per 256 rows, and returns context.Canceled when a cancel lands on
// any of the scan's checks.
func TestScanCancelledWithin256Rows(t *testing.T) {
	const n, k = 1500, 10
	spec := dataset.Netflix()
	data := spec.Generate(n, 31)
	for _, pool := range []int{0, 8} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			ix := buildIndex(t, data, Options{Seed: 3, M: 6, PoolSize: pool})
			// An out-of-sample query that ends in the scan, and how many filter
			// calls precede the scan's: the scan calls it once per row.
			var q []float32
			before := 0
			for _, cand := range spec.Queries(16, 31) {
				calls := 0
				_, st, err := ix.SearchContext(context.Background(), cand, k, SearchParams{Filter: func(uint32) bool { calls++; return true }})
				if err != nil {
					t.Fatal(err)
				}
				if st.TerminatedBy == "scan" {
					q, before = cand, calls-n
					break
				}
			}
			if q == nil {
				t.Fatal("no query ended in the scan")
			}
			for _, row := range []int{0, 1, 255, 256, 1000} {
				ctx, cancel := context.WithCancel(context.Background())
				calls, after := 0, 0
				filter := func(uint32) bool {
					switch calls++; {
					case calls == before+row+1:
						cancel()
					case calls > before+row+1:
						after++
					}
					return true
				}
				_, _, err := ix.SearchContext(ctx, q, k, SearchParams{Filter: filter})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled at row %d of the scan: %v, want context.Canceled", row, err)
				}
				if after >= 256 {
					t.Fatalf("cancelled at row %d of the scan: %d rows admitted after it", row, after)
				}
			}

			counting := newCheckedCtx(0)
			if _, err := ix.Exact(counting, q, k); err != nil {
				t.Fatal(err)
			}
			checks := counting.calls.Load()
			if want := int64(1 + (n+255)/256); checks != want {
				t.Fatalf("Exact checked its context %d times over %d rows, want %d", checks, n, want)
			}
			for at := int64(2); at <= checks; at++ {
				if _, err := ix.Exact(newCheckedCtx(at), q, k); !errors.Is(err, context.Canceled) {
					t.Fatalf("Exact cancelled at its check %d: %v, want context.Canceled", at, err)
				}
			}
		})
	}
}

// TestScanAccountsEveryRow: the sequential scan keeps the accounting of
// reading every row, however few rows it reads. Every admitted row counts
// in Candidates, screened or not, and every data page of the store is
// noted, the pages whose rows the query does not admit (tombstoned or
// filtered) included — on a resident store and on a cold one.
func TestScanAccountsEveryRow(t *testing.T) {
	const n = 1500
	data := dataset.Netflix().Generate(n, 37)
	for _, pool := range []int{0, 8} {
		ix := buildIndex(t, data, Options{Seed: 3, M: 6, PoolSize: pool})
		for id := uint32(0); id < n; id += 5 {
			ix.Delete(id)
		}
		sn, err := ix.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		params := SearchParams{Filter: func(id uint32) bool { return id%7 == 0 }}
		admitted := 0
		for id := uint32(0); id < n; id++ {
			if sn.live(id) && params.accepts(id) {
				admitted++
			}
		}
		sc := getScratch()
		s := sn.newQuery(context.Background(), sc, data[1], 10, sn.optC, sn.optP, params)
		if err := s.scanAll(); err != nil {
			t.Fatal(err)
		}
		dataPages := ix.orig.Pager().NumPages() - 1 // page 0 is the header
		if s.st.Candidates != admitted || sc.io.Pages() != dataPages || s.screened == 0 {
			t.Errorf("pool %d: the scan counted %d candidates (%d screened) and %d pages; want %d admitted rows and %d data pages",
				pool, s.st.Candidates, s.screened, sc.io.Pages(), admitted, dataPages)
		}
		putScratch(sc)
		sn.release()
	}
}
