package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"promips/internal/pager"
	"promips/internal/vec"
)

// Scan-test geometry: 9 vectors per 1 KiB page, 223 data pages, 128 pages per
// chunk — two reads, the second one partial, the last page partly filled.
const scanN, scanDim, scanPageSize = 2003, 27, 1024

// smallPoolStore writes data (position i holds data[i]) behind a 16-page
// pool — a file far larger than its pool — and
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

// walkDots runs ScanRows over st and returns DotBytes of every row against
// q by position, requiring every position to be visited exactly once.
func walkDots(t *testing.T, st *Store, q []float32) []float64 {
	t.Helper()
	ips, visits := make([]float64, st.Len()), make([]int, st.Len())
	var mu sync.Mutex
	err := st.ScanRows(context.Background(), func(first int, rows [][]byte) {
		mu.Lock()
		defer mu.Unlock()
		for i, row := range rows {
			ips[first+i] = vec.DotBytes(row, q)
			visits[first+i]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for pos, n := range visits {
		if n != 1 {
			t.Fatalf("position %d visited %d times", pos, n)
		}
	}
	return ips
}

// TestScanRowsMatchesDotAt: the walk visits every position once and its rows
// score bit-identically to DotAt, and it reads from the file whatever the
// pool's size — one miss per data page, one file read per chunk, no page
// kept — on a store its pool holds, on one far larger than its pool as
// Finalize returned it, and on that file reopened.
func TestScanRowsMatchesDotAt(t *testing.T) {
	resident, data := buildRandomStore(t, scanN, scanDim, scanPageSize) // default pool: 1024 pages
	finalized, path := smallPoolStore(t, data)
	q := data[11]

	check := func(name string, st *Store) {
		t.Helper()
		before := st.Pager().Stats()
		got := walkDots(t, st, q)
		dataPages := int64((scanN + st.perPage - 1) / st.perPage)
		want := pager.Stats{Accesses: dataPages, Misses: dataPages,
			FileReads: (dataPages*scanPageSize + scanChunkBytes - 1) / scanChunkBytes}
		if delta := st.Pager().Stats().Sub(before); delta != want {
			t.Fatalf("%s: walk of %d data pages recorded %+v, want %+v", name, dataPages, delta, want)
		}
		// Nothing was kept: every data page, the last ones first, is a miss
		// when read now.
		before = st.Pager().Stats()
		for pid := st.firstData + dataPages - 1; pid >= st.firstData; pid-- {
			if _, _, err := st.Pager().Read(pid, 1, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if hits := st.Pager().Stats().Sub(before).Hits; hits != 0 {
			t.Fatalf("%s: %d pages the walk read were kept", name, hits)
		}
		for pos := range got {
			want, _, err := st.DotAt(pos, q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[pos]) != math.Float64bits(want) {
				t.Fatalf("%s position %d: walked row %x, DotAt %x", name, pos, math.Float64bits(got[pos]), math.Float64bits(want))
			}
		}
	}
	check("resident", resident)
	check("finalized", finalized)
	if err := finalized.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, pager.Options{PageSize: scanPageSize, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	check("opened", opened)
}

// TestScanRowsCancel: a context cancelled mid-walk stops it and returns
// context.Canceled. Every worker of the pool finishes at most the chunk it
// holds, so a walk of more chunks than there are workers, cancelled in its
// first visit, visits no more than a chunk per worker.
func TestScanRowsCancel(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	chunkRows := scanChunkBytes / scanPageSize * (scanPageSize / (4 * scanDim))
	rng := rand.New(rand.NewSource(3))
	data := make([][]float32, (workers+1)*chunkRows+5)
	for i := range data {
		data[i] = randVec(rng, scanDim)
	}
	st, _ := smallPoolStore(t, data)
	if st.chunkRows() != chunkRows {
		t.Fatalf("chunk of %d rows, want %d", st.chunkRows(), chunkRows)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int64
	err := st.ScanRows(ctx, func(first int, rows [][]byte) {
		visited.Add(int64(len(rows)))
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk returned %v, want context.Canceled", err)
	}
	if got := visited.Load(); got > int64(workers*chunkRows) {
		t.Fatalf("walk visited %d positions after a cancel in its first chunk; %d workers hold %d rows", got, workers, workers*chunkRows)
	}
}
