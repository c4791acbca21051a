package store

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"promips/internal/errs"
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

	// Headers that do not describe the file they head: each must be refused
	// as corrupt, never left to fail (or panic) at the first read. The store
	// holds 20 vectors of dim 3 on 64-byte pages, 5 to a page.
	r := rand.New(rand.NewSource(12))
	vecs := make([][]float32, 20)
	order := make([]uint32, len(vecs))
	for i := range vecs {
		vecs[i], order[i] = randVec(r, 3), uint32(i)
	}
	good := filepath.Join(dir, "good.db")
	writeStoreFile(t, good, 3, 64, order, vecs)
	legacy := filepath.Join(dir, "legacy.db")
	writeLegacyStore(t, legacy, 3, 64, order, vecs)
	for _, c := range []struct {
		name string
		file string
		off  int
		v    uint32
	}{
		{"dim 0", good, 4, 0},
		{"dim over the page", good, 4, 17},
		{"dim 2^31", good, 4, 1 << 31},
		{"perPage 0", good, 12, 0},
		{"perPage 1000", good, 12, 1000},
		{"perPage off by one", good, 12, 4},
		{"n past the data pages", good, 8, 21},
		{"n 2^32-1", good, 8, 1<<32 - 1},
		{"legacy n past the data pages", legacy, 8, 21},
		{"legacy perPage 0", legacy, 12, 0},
	} {
		path := patchHeader(t, c.file, c.off, c.v)
		if st, err := Open(path, pager.Options{PageSize: 64}); !errors.Is(err, errs.ErrCorruptIndex) {
			if err == nil {
				st.Close()
			}
			t.Errorf("%s: err = %v, want ErrCorruptIndex", c.name, err)
		}
	}
	// A page too small to hold the header.
	if _, err := Open(good, pager.Options{PageSize: 8}); !errors.Is(err, errs.ErrCorruptIndex) {
		t.Errorf("8-byte pages: err = %v, want ErrCorruptIndex", err)
	}
}

// patchHeader writes a copy of the store file at path with the header's
// uint32 at off set to v, and returns the copy's path.
func patchHeader(t *testing.T, path string, off int, v uint32) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[off:], v)
	out := filepath.Join(t.TempDir(), "patched.db")
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
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
	got, err := st.VectorAt(0, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Fatal("VectorAt did not reuse the provided buffer")
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
	w.Append(vecs[0])
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
