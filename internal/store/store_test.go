package store

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"promips/internal/pager"
)

func randVec(r *rand.Rand, d int) []float32 {
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func buildStore(t *testing.T, dim, n, pageSize int, order []uint32, vecs [][]float32) *Store {
	t.Helper()
	w, err := Create(filepath.Join(t.TempDir(), "v.db"), dim, n, pager.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		if err := w.Append(vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// checkLayout asserts that position pos of st holds vecs[order[pos]].
func checkLayout(t *testing.T, st *Store, order []uint32, vecs [][]float32) {
	t.Helper()
	if st.Len() != len(order) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(order))
	}
	for pos, id := range order {
		got, err := st.VectorAt(pos, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, vecs[id]) {
			t.Fatalf("position %d does not hold vector %d", pos, id)
		}
	}
}

func TestRoundTripSequentialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const dim, n = 16, 100
	vecs := make([][]float32, n)
	order := make([]uint32, n)
	for i := range vecs {
		vecs[i] = randVec(r, dim)
		order[i] = uint32(i)
	}
	st := buildStore(t, dim, n, 512, order, vecs)
	checkLayout(t, st, order, vecs)
}

func TestRoundTripShuffledLayout(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const dim, n = 8, 257
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = randVec(r, dim)
	}
	order := make([]uint32, n)
	for i, p := range r.Perm(n) {
		order[i] = uint32(p)
	}
	st := buildStore(t, dim, n, 256, order, vecs)
	// Layout positions must match the append order.
	checkLayout(t, st, order, vecs)
}

func TestVectorTooLargeForPage(t *testing.T) {
	_, err := Create(filepath.Join(t.TempDir(), "v.db"), 2000, 10, pager.Options{PageSize: 4096})
	if err == nil {
		t.Fatal("expected error: 2000-dim vector (8000B) cannot fit a 4KB page")
	}
}

func TestAppendErrors(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "v.db"), 4, 2, pager.Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]float32{1, 2}); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	w.Append([]float32{1, 2, 3, 4})
	if _, err := w.Finalize(); err == nil {
		t.Fatal("expected error: finalize before all vectors appended")
	}
	w.Append([]float32{5, 6, 7, 8})
	if err := w.Append([]float32{5, 6, 7, 8}); err == nil {
		t.Fatal("expected error appending beyond n")
	}
}

func TestPersistenceReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.db")
	r := rand.New(rand.NewSource(3))
	const dim, n = 12, 77
	vecs := make([][]float32, n)
	w, err := Create(path, dim, n, pager.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]uint32, n)
	for i, p := range r.Perm(n) {
		order[i] = uint32(p)
		vecs[p] = randVec(r, dim)
		if err := w.Append(vecs[p]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path, pager.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Dim() != dim || st2.Len() != n {
		t.Fatalf("reopened dims = (%d,%d)", st2.Dim(), st2.Len())
	}
	checkLayout(t, st2, order, vecs)
}

func TestPageLocalityOfAdjacentPositions(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const dim, n = 8, 64
	vecs := make([][]float32, n)
	order := make([]uint32, n)
	for i := range vecs {
		vecs[i] = randVec(r, dim)
		order[i] = uint32(i)
	}
	// 256B pages, 8 dims → 8 vectors per page (8*32=256).
	st := buildStore(t, dim, n, 256, order, vecs)
	var io pager.IOStats
	for pos := 0; pos < 8; pos++ {
		if _, err := st.VectorAt(pos, nil, &io); err != nil {
			t.Fatal(err)
		}
	}
	if pages := io.Pages(); pages != 1 {
		t.Fatalf("reading 8 adjacent vectors touched %d pages, want 1", pages)
	}
}

func TestOutOfRangeReads(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vecs := [][]float32{randVec(r, 4)}
	st := buildStore(t, 4, 1, 256, []uint32{0}, vecs)
	if _, err := st.VectorAt(1, nil, nil); err == nil {
		t.Fatal("expected error for position out of range")
	}
	if _, err := st.VectorAt(-1, nil, nil); err == nil {
		t.Fatal("expected error for negative position")
	}
}

func TestZeroVectors(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "v.db"), 4, 0, pager.Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 0 {
		t.Fatalf("Len = %d", st.Len())
	}
}
