package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"promips/internal/pager"
	"promips/internal/vec"
)

// writeStoreFile writes vecs in the layout order to a store file at path
// and closes it.
func writeStoreFile(tb testing.TB, path string, dim, pageSize int, order []uint32, vecs [][]float32) {
	tb.Helper()
	w, err := Create(path, dim, len(order), pager.Options{PageSize: pageSize})
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range order {
		if err := w.Append(vecs[id]); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := w.Finalize()
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
}

// writeLegacyStore writes the PVS1 format, the one before a store was
// addressed by position alone, as its writer laid it out: the header, then
// ⌈n/(pageSize/4)⌉ pages of the id → position table (uint32 per id), then
// vecs in the layout order, perPage to a page.
func writeLegacyStore(tb testing.TB, path string, dim, pageSize int, order []uint32, vecs [][]float32) {
	tb.Helper()
	n, rowSize := len(order), vec.EncodedSize(dim)
	perPage, idsPerPage := pageSize/rowSize, pageSize/4
	tablePgs := (n + idsPerPage - 1) / idsPerPage
	dataPgs := (n + perPage - 1) / perPage
	b := make([]byte, (1+tablePgs+dataPgs)*pageSize)
	binary.LittleEndian.PutUint32(b, legacyMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(dim))
	binary.LittleEndian.PutUint32(b[8:], uint32(n))
	binary.LittleEndian.PutUint32(b[12:], uint32(perPage))
	for pos, id := range order {
		table := (1+int(id)/idsPerPage)*pageSize + int(id)%idsPerPage*4
		binary.LittleEndian.PutUint32(b[table:], uint32(pos))
		data := (1+tablePgs+pos/perPage)*pageSize + pos%perPage*rowSize
		vec.Encode(b[data:], vecs[id])
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// checkLegacyMatches writes n random vectors in a shuffled layout as a
// PVS1 file and as a current store, and asserts that the two hold the same
// data pages byte for byte and read back the same at every position through
// VectorAt, DotAt and ScanRows, opened behind a pool of poolSize
// pages (0: the default).
func checkLegacyMatches(t *testing.T, dim, n, pageSize, poolSize int) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	vecs := make([][]float32, n)
	order := make([]uint32, n)
	for i, p := range r.Perm(n) {
		vecs[i], order[i] = randVec(r, dim), uint32(p)
	}
	dir := t.TempDir()
	cur, legacy := filepath.Join(dir, "cur.db"), filepath.Join(dir, "legacy.db")
	writeStoreFile(t, cur, dim, pageSize, order, vecs)
	writeLegacyStore(t, legacy, dim, pageSize, order, vecs)

	curBytes, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	legacyBytes, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	tablePgs := (n + pageSize/4 - 1) / (pageSize / 4)
	if !bytes.Equal(curBytes[pageSize:], legacyBytes[(1+tablePgs)*pageSize:]) {
		t.Fatal("data pages differ between the formats")
	}
	if !bytes.Equal(curBytes[4:pageSize], legacyBytes[4:pageSize]) {
		t.Fatal("headers differ past the magic")
	}

	opts := pager.Options{PageSize: pageSize, PoolSize: poolSize}
	stores := make([]*Store, 2)
	for i, path := range []string{cur, legacy} {
		if stores[i], err = Open(path, opts); err != nil {
			t.Fatal(err)
		}
		defer stores[i].Close()
	}
	q := randVec(r, dim)
	var want []float64
	for i, st := range stores {
		if st.Dim() != dim || st.Len() != n {
			t.Fatalf("store %d: shape (%d,%d), want (%d,%d)", i, st.Dim(), st.Len(), dim, n)
		}
		dots := make([]float64, n)
		for pos := range dots {
			v, err := st.VectorAt(pos, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(v, vecs[order[pos]]) {
				t.Fatalf("store %d: VectorAt(%d) does not hold vector %d", i, pos, order[pos])
			}
			if dots[pos], _, err = st.DotAt(pos, q, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		walked := walkDots(t, st, q)
		for pos := range dots {
			if math.Float64bits(walked[pos]) != math.Float64bits(dots[pos]) {
				t.Fatalf("store %d: ScanRows' row %d scores %v, DotAt %v", i, pos, walked[pos], dots[pos])
			}
		}
		if i == 0 {
			want = dots
		} else if !slices.Equal(dots, want) {
			t.Fatal("the formats' inner products differ")
		}
	}
}

// TestMultiPageIDTable: a PVS1 table spanning several pages — 64-byte
// pages hold 16 ids, so 100 ids take 7 table pages — is skipped whole.
func TestMultiPageIDTable(t *testing.T) {
	checkLegacyMatches(t, 4, 100, 64, 0)
}

// TestLegacyStoreReadsAsCurrent: a PVS1 store reads back like a current
// store of the same layout, with no vectors, resident, and read from disk
// under a pool far smaller than the file.
func TestLegacyStoreReadsAsCurrent(t *testing.T) {
	for _, c := range []struct{ dim, n, pageSize, poolSize int }{
		{4, 0, 256, 0},
		{8, 257, 256, 0},
		{scanDim, scanN, scanPageSize, 16},
	} {
		checkLegacyMatches(t, c.dim, c.n, c.pageSize, c.poolSize)
	}
}

// FuzzStoreOpen: a store file of arbitrary bytes is either refused by Open
// or reads every position in [0, Len) through VectorAt, DotAt and
// ScanRows without an error or a panic.
func FuzzStoreOpen(f *testing.F) {
	const pageSize = 64
	r := rand.New(rand.NewSource(14))
	vecs := make([][]float32, 20)
	order := make([]uint32, len(vecs))
	for i, p := range r.Perm(len(vecs)) {
		vecs[i], order[i] = randVec(r, 3), uint32(p)
	}
	dir := f.TempDir()
	for i, write := range []func(testing.TB, string, int, int, []uint32, [][]float32){writeStoreFile, writeLegacyStore} {
		path := filepath.Join(dir, string(rune('a'+i)))
		write(f, path, 3, pageSize, order, vecs)
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, patch := range []struct {
			off int
			v   uint32
		}{{12, 0}, {12, 1000}, {8, 10}} {
			c := bytes.Clone(b)
			binary.LittleEndian.PutUint32(c[patch.off:], patch.v)
			f.Add(c)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 256*pageSize {
			return
		}
		if tail := len(b) % pageSize; tail != 0 {
			b = append(b, make([]byte, pageSize-tail)...)
		}
		path := filepath.Join(t.TempDir(), "f.db")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, pager.Options{PageSize: pageSize})
		if err != nil {
			return
		}
		defer st.Close()
		q := make([]float32, st.Dim())
		for i := range q {
			q[i] = 1
		}
		for pos := 0; pos < st.Len(); pos++ {
			if _, err := st.VectorAt(pos, nil, nil); err != nil {
				t.Fatalf("VectorAt(%d) of %d: %v", pos, st.Len(), err)
			}
			if _, _, err := st.DotAt(pos, q, nil, nil); err != nil {
				t.Fatalf("DotAt(%d) of %d: %v", pos, st.Len(), err)
			}
		}
		var walked atomic.Int64
		err = st.ScanRows(context.Background(), func(_ int, rows [][]byte) {
			for _, row := range rows {
				vec.DotBytes(row, q)
			}
			walked.Add(int64(len(rows)))
		})
		if err != nil || walked.Load() != int64(st.Len()) {
			t.Fatalf("ScanRows visited %d of %d: %v", walked.Load(), st.Len(), err)
		}
	})
}
