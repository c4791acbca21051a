package qalsh

import (
	"math/rand"
	"testing"

	"promips/internal/vec"
)

// Exhausting every table (tiny data, huge candidate budget) must terminate
// and return the true nearest neighbor: with all cursors drained, every
// point has K collisions ≥ l.
func TestSearchDrainsTables(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	data := randData(r, 40, 8)
	idx, err := Build(data, t.TempDir(), Config{Seed: 32, BetaCount: 1000, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := randData(r, 1, 8)[0]
	verify := func(id uint32) (float64, error) { return vec.L2Dist(data[id], q), nil }
	got, err := idx.Search(q, 1, nil, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("drained search returned nothing")
	}
	best := 1e18
	for _, o := range data {
		if d := vec.L2Dist(o, q); d < best {
			best = d
		}
	}
	if got[0].Dist > best+1e-9 {
		t.Fatalf("drained search missed the exact NN: %v > %v", got[0].Dist, best)
	}
}

// The candidate budget must bound verification work.
func TestBudgetBoundsVerification(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	data := randData(r, 2000, 10)
	idx, err := Build(data, t.TempDir(), Config{Seed: 34, BetaCount: 20, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := randData(r, 1, 10)[0]
	verified := 0
	verify := func(id uint32) (float64, error) {
		verified++
		return vec.L2Dist(data[id], q), nil
	}
	if _, err := idx.Search(q, 5, nil, verify); err != nil {
		t.Fatal(err)
	}
	// Budget is BetaCount + k; the final round may overshoot by the points
	// sharing its bucket boundary, so allow 3x headroom.
	if verified > 3*(20+5) {
		t.Fatalf("verified %d candidates, budget 25", verified)
	}
}

func TestIdenticalProjectionsHandled(t *testing.T) {
	// All points identical: every projection collides at one value; the
	// binary search and cursor logic must not loop.
	data := make([][]float32, 30)
	for i := range data {
		data[i] = []float32{1, 2, 3}
	}
	idx, err := Build(data, t.TempDir(), Config{Seed: 35, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := []float32{1, 2, 3}
	verify := func(id uint32) (float64, error) { return 0, nil }
	got, err := idx.Search(q, 3, nil, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results over identical points")
	}
}
