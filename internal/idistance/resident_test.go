package idistance

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"promips/internal/pager"
	"promips/internal/store"
)

// TestResidentMatchesDisk is the differential between the two ways a page
// file is read: the same files — an iDistance data file and the vector
// store laid out in its order — opened once resident, keeping each page in
// memory as it is first read (the default budget), and once read from disk
// (a one-page budget). Every page and run of pages, every DotAt, VectorAt
// and ScanRows row, every Projected point and the candidate list of every
// Search must be bit-identical between the two, with equal IOStats.Pages,
// while several goroutines read both at once — racing to keep the same
// pages on the resident side.
func TestResidentMatchesDisk(t *testing.T) {
	const n, m, d, pageSize = 2000, 6, 24, 512
	r := rand.New(rand.NewSource(41))
	projected, vectors := randPoints(r, n, m, 10), randPoints(r, n, d, 1)
	dir := t.TempDir()
	mem, err := Build(context.Background(), projected, dir, Config{Seed: 42, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	disk := *mem
	if disk.data, err = pager.Open(filepath.Join(dir, "idist.data"), pager.Options{PageSize: pageSize, PoolSize: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.data.Close() })
	memStore, diskStore := layoutStores(t, filepath.Join(dir, "orig.data"), mem.Layout(), vectors, pageSize)
	if !mem.data.Resident() || disk.data.Resident() || !memStore.Pager().Resident() || diskStore.Pager().Resident() {
		t.Fatal("want the default budget to hold both files and a one-page budget neither")
	}

	queries := randPoints(r, 24, m, 10)
	fullQueries := randPoints(r, 24, d, 1)
	compare := func(g int) error {
		var memIO, diskIO pager.IOStats
		for _, pg := range [][2]*pager.Pager{{mem.data, disk.data}, {memStore.Pager(), diskStore.Pager()}} {
			var a, b [][]byte
			var buf []byte
			for id := range pg[0].NumPages() {
				n := 1 + int(id%3)
				if id+int64(n) > pg[0].NumPages() {
					n = 1
				}
				var err error
				if a, _, err = pg[0].Read(id, n, a[:0], nil, &memIO); err != nil {
					return err
				}
				if b, buf, err = pg[1].Read(id, n, b[:0], buf, &diskIO); err != nil {
					return err
				}
				for i := range a {
					if !bytes.Equal(a[i], b[i]) {
						return fmt.Errorf("page %d differs", id+int64(i))
					}
				}
			}
		}
		if memIO.Pages() != diskIO.Pages() || memIO.Reads != diskIO.Reads {
			return fmt.Errorf("page walk: %d/%d pages, %d/%d reads", memIO.Pages(), diskIO.Pages(), memIO.Reads, diskIO.Reads)
		}
		q := fullQueries[g%len(fullQueries)]
		var buf []byte
		for pos := range n {
			memIO.Reset()
			diskIO.Reset()
			a, _, err := memStore.DotAt(pos, q, nil, &memIO)
			if err != nil {
				return err
			}
			var b float64
			if b, buf, err = diskStore.DotAt(pos, q, buf, &diskIO); err != nil {
				return err
			}
			if math.Float64bits(a) != math.Float64bits(b) || memIO.Pages() != diskIO.Pages() {
				return fmt.Errorf("DotAt(%d): %v/%v over %d/%d pages", pos, a, b, memIO.Pages(), diskIO.Pages())
			}
			va, err := memStore.VectorAt(pos, nil, &memIO)
			if err != nil {
				return err
			}
			vb, err := diskStore.VectorAt(pos, nil, &diskIO)
			if err != nil {
				return err
			}
			if !slices.Equal(va, vb) || !slices.Equal(va, vectors[mem.Layout()[pos]]) {
				return fmt.Errorf("VectorAt(%d) differs", pos)
			}
		}
		rowsA, err := scanRows(memStore)
		if err != nil {
			return err
		}
		rowsB, err := scanRows(diskStore)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rowsA, rowsB) {
			return fmt.Errorf("ScanRows rows differ")
		}
		for qi, q := range queries {
			for _, band := range [][2]float64{{-1, 4}, {-1, 12}, {6, 15}, {-1, math.Inf(1)}} {
				memIO.Reset()
				diskIO.Reset()
				a, err := mem.Search(context.Background(), q, band[0], band[1], &memIO, nil)
				if err != nil {
					return err
				}
				b, err := disk.Search(context.Background(), q, band[0], band[1], &diskIO, nil)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(a, b) || memIO.Pages() != diskIO.Pages() || memIO.Reads != diskIO.Reads {
					return fmt.Errorf("query %d band %v: %d/%d candidates over %d/%d pages", qi, band, len(a), len(b), memIO.Pages(), diskIO.Pages())
				}
			}
			pos := (qi * 97) % n
			a, err := mem.Projected(pos, nil, &memIO)
			if err != nil {
				return err
			}
			b, err := disk.Projected(pos, nil, &diskIO)
			if err != nil {
				return err
			}
			if !slices.Equal(a, b) || !slices.Equal(a, projected[mem.Layout()[pos]]) {
				return fmt.Errorf("Projected(%d) differs", pos)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := compare(g); err != nil {
				errs <- fmt.Errorf("reader %d: %w", g, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// layoutStores writes vectors into a store at path in layout order and
// returns it twice: as Finalize hands it out, resident, and reopened with a
// one-page budget, read from disk.
func layoutStores(t *testing.T, path string, layout []uint32, vectors [][]float32, pageSize int) (*store.Store, *store.Store) {
	t.Helper()
	w, err := store.Create(path, len(vectors[0]), len(layout), pager.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, id := range layout {
		if err := w.Append(vectors[id]); err != nil {
			t.Fatal(err)
		}
	}
	mem, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	disk, err := store.Open(path, pager.Options{PageSize: pageSize, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk
}

// scanRows returns a copy of every row ScanRows visits, by layout position.
func scanRows(st *store.Store) ([][]byte, error) {
	rows := make([][]byte, st.Len())
	err := st.ScanRows(context.Background(), func(first int, chunk [][]byte) {
		for i, row := range chunk {
			rows[first+i] = bytes.Clone(row)
		}
	})
	return rows, err
}
