package store

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"promips/internal/pager"
)

// Scan-test geometry: 9 vectors per 1 KiB page, 223 data pages, 128 pages per
// chunk — two reads, the second one partial, the last page partly filled.
const scanN, scanDim, scanPageSize = 2003, 27, 1024

// smallPoolStore writes data (position i holds data[i]) behind a 16-page
// pool — a file far larger than its pool, which ScanDot reads around — and
// returns it as Finalize left it, and its path.
func smallPoolStore(t *testing.T, data [][]float32) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "small.data")
	w, err := Create(path, scanDim, len(data), pager.Options{PageSize: scanPageSize, PoolSize: 16})
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
	return st, path
}

// scanAll runs ScanDot over every position and returns the emitted inner
// products by position (NaN where nothing was emitted).
func scanAll(t *testing.T, st *Store, q []float32, io *pager.IOStats, keep func(int) bool) []float64 {
	t.Helper()
	ips := make([]float64, st.Len())
	for i := range ips {
		ips[i] = math.NaN()
	}
	last := -1
	_, err := st.ScanDot(context.Background(), q, nil, io, keep, func(pos int, ip float64) {
		if pos <= last {
			t.Fatalf("emitted position %d after %d", pos, last)
		}
		last = pos
		ips[pos] = ip
	})
	if err != nil {
		t.Fatal(err)
	}
	return ips
}

// TestScanDotMatchesDotAt: the sequential scorer emits — for every kept
// position, in ascending order — an inner product bit-identical to DotAt,
// and accounts every data page as one access, on both of its
// page sources: through the pool when the file fits in it, and around the
// pool (every page a miss, one file read per chunk, nothing installed or
// evicted) when it does not — there on the store Finalize returned and on
// the same file reopened.
func TestScanDotMatchesDotAt(t *testing.T) {
	resident, data := buildRandomStore(t, scanN, scanDim, scanPageSize) // default pool: 1024 pages
	finalized, path := smallPoolStore(t, data)
	q := data[11]

	check := func(name string, st *Store, bypass bool) {
		t.Helper()
		want := make([]float64, scanN)
		for pos := range want {
			var err error
			if want[pos], _, err = st.DotAt(pos, q, nil, nil); err != nil {
				t.Fatal(err)
			}
			if n := st.Pager().Pinned(); n != 0 {
				t.Fatalf("%s position %d: %d pins held after DotAt", name, pos, n)
			}
		}
		before := st.Pager().Stats()
		var io pager.IOStats
		got := scanAll(t, st, q, &io, func(int) bool { return true })
		for pos := range want {
			if math.Float64bits(got[pos]) != math.Float64bits(want[pos]) {
				t.Fatalf("%s position %d: ScanDot %x, DotAt %x", name, pos, math.Float64bits(got[pos]), math.Float64bits(want[pos]))
			}
		}
		dataPages := int64((scanN + st.perPage - 1) / st.perPage)
		if io.Pages() != dataPages || io.Reads != dataPages {
			t.Fatalf("%s: IOStats saw %d pages in %d reads, want %d", name, io.Pages(), io.Reads, dataPages)
		}
		delta := st.Pager().Stats().Sub(before)
		wantDelta := pager.Stats{Accesses: dataPages, Hits: dataPages} // the DotAt loop left every page resident
		if bypass {
			wantDelta = pager.Stats{Accesses: dataPages, Misses: dataPages,
				FileReads: (dataPages*scanPageSize + scanChunkBytes - 1) / scanChunkBytes}
		}
		if delta != wantDelta {
			t.Fatalf("%s: scan of %d data pages recorded %+v, want %+v", name, dataPages, delta, wantDelta)
		}

		// keep filters positions; the rest are neither scored nor emitted.
		odd := scanAll(t, st, q, nil, func(pos int) bool { return pos%2 == 1 })
		for pos := range want {
			if pos%2 == 0 && !math.IsNaN(odd[pos]) {
				t.Fatalf("%s: emitted rejected position %d", name, pos)
			}
			if pos%2 == 1 && math.Float64bits(odd[pos]) != math.Float64bits(want[pos]) {
				t.Fatalf("%s position %d (filtered scan): %x, want %x", name, pos, math.Float64bits(odd[pos]), math.Float64bits(want[pos]))
			}
		}
		// The scans released every chunk they pinned.
		if got := st.Pager().Pinned(); got != 0 {
			t.Fatalf("%s: %d pins held after the scans", name, got)
		}
	}
	check("resident", resident, false)
	check("finalized", finalized, true)
	if err := finalized.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, pager.Options{PageSize: scanPageSize, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	check("opened", opened, true)
}

// TestScanDotRefusals: a wrong-dimension query and a context cancelled
// between chunks. (The pool bypass needs no refusal of its own: a Store only
// exists over a finished file.)
func TestScanDotRefusals(t *testing.T) {
	_, data := buildRandomStore(t, scanN, scanDim, scanPageSize)
	st, _ := smallPoolStore(t, data)
	nop := func(int, float64) {}
	all := func(int) bool { return true }
	if _, err := st.ScanDot(context.Background(), data[0][:5], nil, nil, all, nop); err == nil {
		t.Fatal("ScanDot accepted a short query")
	}

	ctx, cancel := context.WithCancel(context.Background())
	visited := 0
	_, err := st.ScanDot(ctx, data[0], nil, nil, func(int) bool {
		if visited++; visited == 10 {
			cancel()
		}
		return true
	}, nop)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if chunkRows := scanChunkBytes / scanPageSize * st.perPage; visited > chunkRows {
		t.Fatalf("scan visited %d positions after a cancel at 10; one chunk holds %d", visited, chunkRows)
	}
}

// TestScanDotCancelReleasesPins: a scan through the pool that is cancelled
// mid-walk leaves no page of its last chunk pinned.
func TestScanDotCancelReleasesPins(t *testing.T) {
	st, data := buildRandomStore(t, scanN, scanDim, scanPageSize)
	if !st.Pager().Resident() {
		t.Fatal("the default pool should hold the scan store")
	}
	ctx, cancel := context.WithCancel(context.Background())
	visited := 0
	_, err := st.ScanDot(ctx, data[0], nil, nil, func(int) bool {
		if visited++; visited == 10 {
			cancel()
		}
		return true
	}, func(int, float64) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if got := st.Pager().Pinned(); got != 0 {
		t.Fatalf("%d pins held after the cancelled scan", got)
	}
}
