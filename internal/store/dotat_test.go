package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
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
	got, _, err := st.DotAt(posn, q, nil, io)
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
		if _, _, err := st.DotAt(c.pos, c.q, nil, nil); err == nil {
			t.Fatalf("DotAt(%d) with a %d-dim query: no error", c.pos, len(c.q))
		}
		if n := st.Pager().Pinned(); n != 0 {
			t.Fatalf("%d pins held after a refused DotAt", n)
		}
	}
}

// TestDotAtAfterEviction: DotAt reads by the store's rule on both sides of
// it. On a resident store its pages come through the pool: read, dropped
// (every frame back on the free list) and read again, they are re-read
// correctly into recycled frames, one miss per page, the other positions of
// a page hitting it. On a cold store — an 8-page pool under 64 data pages,
// churned by VectorAt until every frame has been recycled — DotAt reads
// around the pool: every call is one access, one miss and one file read,
// it holds no pin, and it installs and evicts nothing, so a VectorAt of the
// same pages afterwards still misses.
func TestDotAtAfterEviction(t *testing.T) {
	const dim, pageSize, n = 8, 128, 256 // 64 data pages of 4 vectors
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(i*dim + j)
		}
	}
	q := data[0]
	const touched = 4 // pages
	t.Run("resident", func(t *testing.T) {
		st := writeOrdered(t, data, pager.Options{PageSize: pageSize, PoolSize: 128})
		pg := st.Pager()
		if !pg.Resident() {
			t.Fatal("a 128-page pool should hold the store")
		}
		for posn := 0; posn < touched*4; posn++ {
			dotAt(t, st, posn, q, data[posn], nil)
		}
		pg.DropPool()
		before := pg.Stats()
		for posn := 0; posn < touched*4; posn++ {
			dotAt(t, st, posn, q, data[posn], nil)
		}
		want := pager.Stats{Accesses: touched * 4, Hits: touched * 3, Misses: touched, FileReads: touched}
		if d := pg.Stats().Sub(before); d != want {
			t.Fatalf("re-reading %d dropped pages recorded %+v, want %+v", touched, d, want)
		}
	})
	t.Run("cold", func(t *testing.T) {
		st := writeOrdered(t, data, pager.Options{PageSize: pageSize, PoolSize: 8})
		pg := st.Pager()
		if pg.Resident() {
			t.Fatal("an 8-page pool should not hold the store")
		}
		for posn := n - 1; posn >= n-128; posn-- {
			if _, err := st.VectorAt(posn, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		before := pg.Stats()
		var io pager.IOStats
		for posn := 0; posn < touched*4; posn++ {
			dotAt(t, st, posn, q, data[posn], &io)
		}
		want := pager.Stats{Accesses: touched * 4, Misses: touched * 4, FileReads: touched * 4}
		if d := pg.Stats().Sub(before); d != want {
			t.Fatalf("%d DotAt calls on a cold store recorded %+v, want %+v", touched*4, d, want)
		}
		if io.Reads != touched*4 || io.Pages() != touched {
			t.Fatalf("IOStats saw %d reads of %d pages, want %d of %d", io.Reads, io.Pages(), touched*4, touched)
		}
		before = pg.Stats()
		for posn := 0; posn < touched*4; posn += 4 {
			if _, err := st.VectorAt(posn, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if d := pg.Stats().Sub(before); d.Misses != touched {
			t.Fatalf("VectorAt of the %d pages DotAt read missed %d times: DotAt installed them", touched, d.Misses)
		}
	})
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

// TestDotAtPinStress runs DotAt and VectorAt on many goroutines over a
// one-stripe pool smaller than the file. VectorAt reads through the pool, so
// frames are recycled between the reads of concurrent goroutines; DotAt, on
// this cold store, reads around it into each goroutine's own page buffer.
// Every inner product and vector must stay bit-exact — a page recycled
// while pinned would score another page's bytes — and afterwards nothing is
// pinned.
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
			var buf []byte // its DotAt's page buffer
			for i := 0; i < 3000; i++ {
				pos := rng.Intn(n)
				if i%3 == 0 { // revisit a few pages of its own too
					pos = (pos % 16) + g*16
				}
				if i%2 == 1 {
					v, err := st.VectorAt(pos, nil, nil)
					if err != nil {
						errs <- err
						return
					}
					if !slices.Equal(v, data[pos]) {
						errs <- fmt.Errorf("goroutine %d: VectorAt(%d) = %v, want %v", g, pos, v, data[pos])
						return
					}
					continue
				}
				got, b, err := st.DotAt(pos, q, buf, nil)
				buf = b
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
