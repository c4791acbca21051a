package store

import (
	"math"
	"path/filepath"
	"testing"

	"promips/internal/pager"
	"promips/internal/vec"
)

// TestReaderWindowWraparound drives one Reader across more distinct pages
// than the pinned window holds, then returns to the earliest pages: the
// wrapped-out slots must be transparently re-read (correct values, one
// extra pager round trip each, same distinct-page accounting).
func TestReaderWindowWraparound(t *testing.T) {
	// 4 vectors per 128-byte page at dim 8 → positions p*4 hit distinct pages.
	st, data := buildReaderStore(t, 64, 8, 128)
	q := data[1]
	rd := st.NewReader()
	var io pager.IOStats

	touch := func(posn int) {
		t.Helper()
		got, err := rd.DotAt(posn, q, &io)
		if err != nil {
			t.Fatal(err)
		}
		id := posn // layout position == id in buildReaderStore
		want := vec.Dot(data[id], q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("posn %d: got %x want %x", posn, math.Float64bits(got), math.Float64bits(want))
		}
	}

	// Touch readerWindow+3 distinct pages — more than the window pins.
	distinct := readerWindow + 3
	for p := 0; p < distinct; p++ {
		touch(p * 4)
	}
	readsAfterFill := io.Reads
	if io.Pages() != int64(distinct) {
		t.Fatalf("distinct pages %d, want %d", io.Pages(), distinct)
	}
	// The first pages have been wrapped out of the window: touching them
	// again must cost a pager read each (not silently serve stale slots)…
	for p := 0; p < 3; p++ {
		touch(p * 4)
	}
	if io.Reads != readsAfterFill+3 {
		t.Fatalf("re-touch of wrapped pages issued %d reads, want %d", io.Reads-readsAfterFill, 3)
	}
	// …while the distinct-page metric is unchanged (same pages).
	if io.Pages() != int64(distinct) {
		t.Fatalf("distinct pages after re-touch %d, want %d", io.Pages(), distinct)
	}
	// The most recent pages are still pinned: touching them is free.
	readsBefore := io.Reads
	touch((distinct - 1) * 4)
	if io.Reads != readsBefore {
		t.Fatal("pinned page went through the pager again")
	}
}

// TestReaderRePinAfterEviction pins pages through a pager whose pool is
// smaller than the touched set, then churns the pool until every unpinned
// frame has been recycled. The window's pages are pinned, so churn cannot
// evict them: they keep serving exact bytes. Reset releases the pins, the
// churn then evicts those pages too, and a Reader re-pinning them re-reads
// them correctly from the file.
func TestReaderRePinAfterEviction(t *testing.T) {
	const dim, pageSize = 8, 128
	n := 256 // 64 data pages, far beyond the pool below
	rngData := make([][]float32, n)
	w, err := Create(filepath.Join(t.TempDir(), "s.data"), dim, n, pager.Options{PageSize: pageSize, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rngData {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(i*dim + j)
		}
		rngData[i] = v
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	q := rngData[0]
	rd := st.NewReader()
	// Pin the window on the first pages.
	for posn := 0; posn < readerWindow*4; posn++ {
		if _, err := rd.DotAt(posn, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	churn := func() {
		t.Helper()
		for posn := n - 1; posn >= n-128; posn-- {
			if _, err := st.VectorAt(posn, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	pg := st.Pager()
	churn()
	if pg.Pinned() != readerWindow {
		t.Fatalf("Pinned = %d with a full window, want %d", pg.Pinned(), readerWindow)
	}
	// The Reader's pinned pages must still serve exact bytes, from the pool…
	before := pg.Stats()
	for posn := 0; posn < readerWindow*4; posn++ {
		got, err := rd.DotAt(posn, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.Dot(rngData[posn], q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("posn %d after eviction: got %x want %x", posn, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if pg.Stats().Sub(before).Accesses != 0 {
		t.Fatal("the pinned window went through the pager again")
	}
	rd.Reset(st)
	if pg.Pinned() != 0 {
		t.Fatalf("Pinned = %d after Reset", pg.Pinned())
	}
	// …and once released they are evicted like any page, and a fresh Reader
	// re-pinning them reads them back intact from the file.
	churn()
	before = pg.Stats()
	rd2 := st.NewReader()
	defer rd2.Reset(nil)
	for posn := 0; posn < readerWindow*4; posn++ {
		got, err := rd2.DotAt(posn, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.Dot(rngData[posn], q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("posn %d re-pin: got %x want %x", posn, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if d := pg.Stats().Sub(before); d.Misses != readerWindow {
		t.Fatalf("re-pinning the released window missed %d times, want %d", d.Misses, readerWindow)
	}
}

// TestReaderAcrossShardedPool walks readers over a store whose pager uses
// the full shard fan-out (pool large enough for 16 stripes), interleaving
// two Readers so their windows pin pages of different shards concurrently.
func TestReaderAcrossShardedPool(t *testing.T) {
	const dim, pageSize = 8, 128
	n := 1024
	w, err := Create(filepath.Join(t.TempDir(), "s.data"), dim, n, pager.Options{PageSize: pageSize, PoolSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32((i + 1) * (j + 2) % 97)
		}
		data[i] = v
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Pager().Shards(); got < 2 {
		t.Fatalf("expected a striped pool, got %d shards", got)
	}

	q := data[5]
	a, b := st.NewReader(), st.NewReader()
	for i := 0; i < n; i += 7 {
		pa := i
		pb := n - 1 - i
		ga, err := a.DotAt(pa, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := b.DotAt(pb, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ga) != math.Float64bits(vec.Dot(data[pa], q)) {
			t.Fatalf("reader a posn %d mismatch", pa)
		}
		if math.Float64bits(gb) != math.Float64bits(vec.Dot(data[pb], q)) {
			t.Fatalf("reader b posn %d mismatch", pb)
		}
	}
}
