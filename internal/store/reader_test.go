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
	for i, v := range data {
		if err := w.Append(uint32(i), v); err != nil {
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
// is bit-identical to the decode-then-Dot path for every id, in layout
// order (the order the hot path uses) and in random order (window misses).
func TestReaderDotMatchesVector(t *testing.T) {
	st, data := buildReaderStore(t, 200, 17, 256) // small pages → several vectors/page, many pages
	q := data[3]

	rd := st.NewReader()
	var io, io2 pager.IOStats
	for id := 0; id < len(data); id++ {
		got, err := rd.Dot(uint32(id), q, &io)
		if err != nil {
			t.Fatal(err)
		}
		v, err := st.Vector(uint32(id), nil, &io2)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.Dot(v, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("id %d: Reader.Dot=%x want %x", id, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// The window must not change the distinct-page accounting.
	if io.Pages() != io2.Pages() {
		t.Fatalf("Reader touched %d distinct pages, Vector path %d", io.Pages(), io2.Pages())
	}
	// …but it must eliminate the per-candidate pager round trips: layout
	// order revisits each page perPage times through the memo.
	if io.Reads >= io2.Reads {
		t.Fatalf("Reader issued %d pager reads, want fewer than the unmemoized %d", io.Reads, io2.Reads)
	}

	rng := rand.New(rand.NewSource(9))
	rd2 := st.NewReader()
	for trial := 0; trial < 500; trial++ {
		id := uint32(rng.Intn(len(data)))
		got, err := rd2.Dot(id, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := st.Vector(id, nil, nil)
		if math.Float64bits(got) != math.Float64bits(vec.Dot(v, q)) {
			t.Fatalf("random id %d mismatch", id)
		}
	}
}

func TestReaderVectorAndReset(t *testing.T) {
	st, data := buildReaderStore(t, 50, 9, 128)
	rd := st.NewReader()
	var buf []float32
	for id := range data {
		v, err := rd.Vector(uint32(id), buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf = v
		for j := range v {
			if v[j] != data[id][j] {
				t.Fatalf("id %d coord %d: %v != %v", id, j, v[j], data[id][j])
			}
		}
	}
	rd.Reset(st)
	if _, err := rd.Dot(0, data[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Dot(uint32(len(data)), data[0], nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := rd.DotAt(-1, data[0], nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := rd.DotAt(0, data[0][:3], nil); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
}
