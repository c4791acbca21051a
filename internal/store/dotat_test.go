package store

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"promips/internal/pager"
	"promips/internal/vec"
)

// buildRandomStore writes n random dim-vectors in id order and returns them.
func buildRandomStore(t *testing.T, n, dim, pageSize int) (*Store, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		data[i] = v
	}
	return writeOrdered(t, data, pager.Options{PageSize: pageSize}), data
}

// writeOrdered writes data (position i holds data[i]) behind a pager with
// opts and returns the finalized store.
func writeOrdered(t *testing.T, data [][]float32, opts pager.Options) *Store {
	t.Helper()
	w, err := Create(filepath.Join(t.TempDir(), "s.data"), len(data[0]), len(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		if err := w.Append(v); err != nil {
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

// dotAt is DotAt that fails t on an error or on a result not bit-identical
// to ⟨want,q⟩.
func dotAt(t *testing.T, st *Store, posn int, q, want []float32, io *pager.IOStats) {
	t.Helper()
	got, _, err := st.DotAt(posn, q, nil, io)
	if err != nil {
		t.Fatal(err)
	}
	if w := vec.Dot(want, q); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("position %d: DotAt=%x want %x", posn, math.Float64bits(got), math.Float64bits(w))
	}
}

// TestDotAtMatchesVector asserts the fused verification path is
// bit-identical to the decode-then-Dot path for every position, in layout
// order and in random order, and accounts the same distinct pages.
func TestDotAtMatchesVector(t *testing.T) {
	st, data := buildRandomStore(t, 200, 17, 256) // small pages → several vectors/page, many pages
	q := data[3]

	var io, io2 pager.IOStats
	for pos := range data {
		v, err := st.VectorAt(pos, nil, &io2)
		if err != nil {
			t.Fatal(err)
		}
		dotAt(t, st, pos, q, v, &io)
	}
	if io.Pages() != io2.Pages() {
		t.Fatalf("DotAt touched %d distinct pages, VectorAt %d", io.Pages(), io2.Pages())
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		pos := rng.Intn(len(data))
		dotAt(t, st, pos, q, data[pos], nil)
	}
}

// TestDotAtRefusals: out-of-range positions and mis-dimensioned queries are
// errors.
func TestDotAtRefusals(t *testing.T) {
	st, data := buildRandomStore(t, 50, 9, 128)
	for _, c := range []struct {
		pos int
		q   []float32
	}{{len(data), data[0]}, {-1, data[0]}, {0, data[0][:3]}} {
		if _, _, err := st.DotAt(c.pos, c.q, nil, nil); err == nil {
			t.Fatalf("DotAt(%d) with a %d-dim query: no error", c.pos, len(c.q))
		}
	}
}
