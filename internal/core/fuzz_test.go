package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"promips/internal/errs"
)

// realMetaBytes builds a tiny real index, saves it, and returns the
// promips.meta bytes — the fuzz corpus's anchor in reality.
func realMetaBytes(tb testing.TB) []byte {
	tb.Helper()
	r := rand.New(rand.NewSource(9))
	data := randData(r, 40, 6)
	dir := tb.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 10, M: 4})
	if err != nil {
		tb.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Insert(data[0]); err != nil {
		tb.Fatal(err)
	}
	ix.Delete(3)
	if err := ix.Save(dir); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "promips.meta"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzCoreMetaDecode: arbitrary bytes fed to the promips.meta decoder must
// yield ErrCorruptIndex or a validated meta — never a panic, and never a
// meta whose shape would make the search path index out of bounds.
func FuzzCoreMetaDecode(f *testing.F) {
	real := realMetaBytes(f)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream at all"))
	// A well-formed gob of a hostile meta: arrays shorter than N.
	var hostile bytes.Buffer
	gob.NewEncoder(&hostile).Encode(&coreMeta{N: 1 << 30, D: 4, M: 4})
	f.Add(hostile.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCoreMeta(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, errs.ErrCorruptIndex) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		// Validation passed: the invariants the search path relies on hold.
		if len(m.Norm2Sq) != m.N || len(m.Norm1) != m.N || len(m.Codes) != m.N {
			t.Fatalf("validated meta with inconsistent arrays: n=%d %d/%d/%d",
				m.N, len(m.Norm2Sq), len(m.Norm1), len(m.Codes))
		}
		for i, e := range m.Delta {
			if int(e.ID) != m.N+i || len(e.V) != m.D {
				t.Fatalf("validated meta with bad delta entry %d: %+v", i, e)
			}
		}
	})
}

// TestOpenCorruptMeta pins the non-fuzz contract: flipping bytes in a real
// meta file yields ErrCorruptIndex from Open, never a panic, and never a
// silently wrong index.
func TestOpenCorruptMeta(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	data := randData(r, 40, 6)
	dir := t.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 22, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	path := filepath.Join(dir, "promips.meta")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(orig) / 3, len(orig) - 2} {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("truncated meta (%d bytes): err = %v, want ErrCorruptIndex", cut, err)
		}
	}
}
