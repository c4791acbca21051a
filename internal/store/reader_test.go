package store

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"promips/internal/pager"
	"promips/internal/vec"
)

// buildReaderStore writes n random dim-vectors in id order and returns them.
func buildReaderStore(t *testing.T, n, dim, pageSize int) (*Store, [][]float32) {
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
	w, err := Create(filepath.Join(t.TempDir(), "s.data"), dim, n, pager.Options{PageSize: pageSize})
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
	return st, data
}

// TestReaderDotMatchesVector asserts the fused page-local verification path
// is bit-identical to the decode-then-Dot path for every position, in layout
// order (the order the hot path uses) and in random order (window misses).
func TestReaderDotMatchesVector(t *testing.T) {
	st, data := buildReaderStore(t, 200, 17, 256) // small pages → several vectors/page, many pages
	q := data[3]

	rd := st.NewReader()
	var io, io2 pager.IOStats
	for pos := range data {
		got, err := rd.DotAt(pos, q, &io)
		if err != nil {
			t.Fatal(err)
		}
		v, err := st.VectorAt(pos, nil, &io2)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.Dot(v, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("position %d: Reader.DotAt=%x want %x", pos, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// The window must not change the distinct-page accounting.
	if io.Pages() != io2.Pages() {
		t.Fatalf("Reader touched %d distinct pages, VectorAt path %d", io.Pages(), io2.Pages())
	}
	// …but it must eliminate the per-candidate pager round trips: layout
	// order revisits each page perPage times through the memo.
	if io.Reads >= io2.Reads {
		t.Fatalf("Reader issued %d pager reads, want fewer than the unmemoized %d", io.Reads, io2.Reads)
	}

	rng := rand.New(rand.NewSource(9))
	rd2 := st.NewReader()
	for trial := 0; trial < 500; trial++ {
		pos := rng.Intn(len(data))
		got, err := rd2.DotAt(pos, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := st.VectorAt(pos, nil, nil)
		if math.Float64bits(got) != math.Float64bits(vec.Dot(v, q)) {
			t.Fatalf("random position %d mismatch", pos)
		}
	}
}

// TestReaderReset: a Reset reader still serves, and out-of-range positions
// and mis-dimensioned queries are errors.
func TestReaderReset(t *testing.T) {
	st, data := buildReaderStore(t, 50, 9, 128)
	rd := st.NewReader()
	for pos := range data {
		if _, err := rd.DotAt(pos, data[pos], nil); err != nil {
			t.Fatal(err)
		}
	}
	rd.Reset(st)
	if _, err := rd.DotAt(0, data[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.DotAt(len(data), data[0], nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := rd.DotAt(-1, data[0], nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := rd.DotAt(0, data[0][:3], nil); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
}
