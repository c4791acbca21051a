package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
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

// dotAt is DotAt that fails t on an error, on a result not bit-identical to
// ⟨want,q⟩, or on a pin left behind.
func dotAt(t *testing.T, st *Store, posn int, q, want []float32, io *pager.IOStats) {
	t.Helper()
	got, err := st.DotAt(posn, q, io)
	if err != nil {
		t.Fatal(err)
	}
	if w := vec.Dot(want, q); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("position %d: DotAt=%x want %x", posn, math.Float64bits(got), math.Float64bits(w))
	}
	if n := st.Pager().Pinned(); n != 0 {
		t.Fatalf("position %d: %d pins held after DotAt", posn, n)
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
// errors, and take no pin.
func TestDotAtRefusals(t *testing.T) {
	st, data := buildRandomStore(t, 50, 9, 128)
	for _, c := range []struct {
		pos int
		q   []float32
	}{{len(data), data[0]}, {-1, data[0]}, {0, data[0][:3]}} {
		if _, err := st.DotAt(c.pos, c.q, nil); err == nil {
			t.Fatalf("DotAt(%d) with a %d-dim query: no error", c.pos, len(c.q))
		}
		if n := st.Pager().Pinned(); n != 0 {
			t.Fatalf("%d pins held after a refused DotAt", n)
		}
	}
}

// TestDotAtAfterEviction reads pages through a pool smaller than the
// touched set, churns the pool until every frame has been recycled, and
// reads them again: DotAt holds no pin, so the churn evicts them, and they
// are re-read correctly from the file.
func TestDotAtAfterEviction(t *testing.T) {
	const dim, pageSize, n = 8, 128, 256 // 64 data pages of 4 vectors, far beyond the pool below
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(i*dim + j)
		}
	}
	st := writeOrdered(t, data, pager.Options{PageSize: pageSize, PoolSize: 8})
	q := data[0]
	const touched = 4 // pages
	for posn := 0; posn < touched*4; posn++ {
		dotAt(t, st, posn, q, data[posn], nil)
	}
	for posn := n - 1; posn >= n-128; posn-- {
		if _, err := st.VectorAt(posn, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	pg := st.Pager()
	before := pg.Stats()
	for posn := 0; posn < touched*4; posn++ {
		dotAt(t, st, posn, q, data[posn], nil)
	}
	if d := pg.Stats().Sub(before); d.Misses != touched {
		t.Fatalf("re-reading %d evicted pages missed %d times", touched, d.Misses)
	}
}

// TestDotAtAcrossShardedPool interleaves two walks, one from each end, over
// a store whose pager uses the full shard fan-out (pool large enough for 16
// stripes).
func TestDotAtAcrossShardedPool(t *testing.T) {
	const dim, pageSize, n = 8, 128, 1024
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32((i + 1) * (j + 2) % 97)
		}
	}
	st := writeOrdered(t, data, pager.Options{PageSize: pageSize, PoolSize: 1024})
	if got := st.Pager().Shards(); got < 2 {
		t.Fatalf("expected a striped pool, got %d shards", got)
	}
	q := data[5]
	for i := 0; i < n; i += 7 {
		dotAt(t, st, i, q, data[i], nil)
		dotAt(t, st, n-1-i, q, data[n-1-i], nil)
	}
}

// TestDotAtPinStress runs DotAt on many goroutines over a one-stripe pool
// smaller than the file, so frames are recycled between the reads of
// concurrent goroutines. Every inner product must stay bit-exact — a page
// recycled while pinned would score another page's bytes — and afterwards
// nothing is pinned.
func TestDotAtPinStress(t *testing.T) {
	const dim, pageSize, n = 8, 128, 400 // 100 data pages, 4 vectors each
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(i*dim + j)
		}
	}
	st := writeOrdered(t, data, pager.Options{PageSize: pageSize, PoolSize: 8})
	if st.Pager().Shards() != 1 {
		t.Fatalf("want one stripe, got %d", st.Pager().Shards())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			q := data[g]
			for i := 0; i < 3000; i++ {
				pos := rng.Intn(n)
				if i%3 == 0 { // revisit a few pages of its own too
					pos = (pos % 16) + g*16
				}
				got, err := st.DotAt(pos, q, nil)
				if err != nil {
					errs <- err
					return
				}
				if want := vec.Dot(data[pos], q); math.Float64bits(got) != math.Float64bits(want) {
					errs <- fmt.Errorf("goroutine %d: position %d scored %v, want %v", g, pos, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := st.Pager().Pinned(); got != 0 {
		t.Fatalf("%d pins held after every DotAt returned", got)
	}
}
