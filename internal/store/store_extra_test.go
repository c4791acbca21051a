package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"promips/internal/pager"
)

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing"), pager.Options{PageSize: 256}); err == nil {
		t.Fatal("expected error for missing file")
	}
	// A valid pager file that is not a store (bad magic).
	path := filepath.Join(dir, "junk.db")
	if err := os.WriteFile(path, make([]byte, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, pager.Options{PageSize: 256}); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestCreateInvalidArgs(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "v"), 0, 5, pager.Options{PageSize: 256}); err == nil {
		t.Fatal("expected error for dim=0")
	}
	if _, err := Create(filepath.Join(dir, "v"), 4, -1, pager.Options{PageSize: 256}); err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestVectorDstReuse(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	vecs := [][]float32{randVec(r, 6), randVec(r, 6)}
	st := buildStore(t, 6, 2, 256, []uint32{0, 1}, vecs)
	dst := make([]float32, 16)
	got, err := st.Vector(0, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Fatal("Vector did not reuse the provided buffer")
	}
}

// Table spanning multiple pages: with 64B pages, 16 ids per table page,
// 100 ids need 7 table pages.
func TestMultiPageIDTable(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	const n, dim = 100, 4
	vecs := make([][]float32, n)
	order := make([]uint32, n)
	for i, p := range r.Perm(n) {
		vecs[i] = randVec(r, dim)
		order[i] = uint32(p)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "v.db")
	w, err := Create(path, dim, n, pager.Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		if err := w.Append(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(path, pager.Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for id := uint32(0); id < n; id++ {
		got, err := st2.Vector(id, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != vecs[id][0] {
			t.Fatalf("vector %d wrong after multi-page table reopen", id)
		}
	}
}

func TestSizeBytesMatchesFile(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vecs := [][]float32{randVec(r, 4)}
	dir := t.TempDir()
	path := filepath.Join(dir, "v.db")
	w, err := Create(path, 4, 1, pager.Options{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, vecs[0])
	st, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.SizeBytes() != fi.Size() {
		t.Fatalf("SizeBytes %d != file size %d", st.SizeBytes(), fi.Size())
	}
}
