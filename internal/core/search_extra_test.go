package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

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
