package idistance

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"promips/internal/errs"
	"promips/internal/leaktest"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	pts := randPoints(r, 900, 6, 10)
	dir := t.TempDir()
	idx, err := Build(context.Background(), pts, dir, Config{Kp: 4, Nkey: 15, Ksp: 6, Seed: 31, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	q := randPoints(r, 1, 6, 10)[0]
	want, err := idx.RangeSearch(context.Background(), q, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantProj, err := idx.Projected(42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 900 || re.M() != 6 {
		t.Fatalf("reloaded dims = (%d,%d)", re.Len(), re.M())
	}
	got, err := re.RangeSearch(context.Background(), q, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("range search changed after reload: %d vs %d candidates", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d changed after reload", i)
		}
	}
	gotProj, err := re.Projected(42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotProj {
		if gotProj[i] != wantProj[i] {
			t.Fatal("projected fetch changed after reload")
		}
	}
	if len(re.Layout()) != 900 {
		t.Fatalf("layout lost: %d entries", len(re.Layout()))
	}
}

func TestOpenMissingMeta(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("expected error opening empty dir")
	}
}

// TestOpenCorruptTree is the shown bug: one damaged length byte in the first
// leaf entry of a saved idist.btree (page 1, offset 16+9+3) used to panic
// Open with a slice bound of 2130706561; it is ErrCorruptIndex, and the page
// files Open had opened are closed again.
func TestOpenCorruptTree(t *testing.T) {
	dir := t.TempDir()
	idx, err := Build(context.Background(), randPoints(rand.New(rand.NewSource(32)), 900, 6, 10), dir, Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	path := filepath.Join(dir, "idist.btree")
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file[4096+16+9+3] = 0x7f
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	fds := leaktest.OpenFDs(t)
	if re, err := Open(dir); !errors.Is(err, errs.ErrCorruptIndex) {
		if err == nil {
			re.Close()
		}
		t.Fatalf("Open over a damaged tree returned %v, want ErrCorruptIndex", err)
	}
	if got := leaktest.OpenFDs(t); got != fds {
		t.Fatalf("%d open fds after the refused Open, %d before", got, fds)
	}
}

// TestBuildFailureClosesFiles: whichever step of Build fails — creating the
// second file, or the tree build after every ring has been written — no
// descriptor outlives it.
func TestBuildFailureClosesFiles(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(34)), 300, 6, 10)
	for name, tc := range map[string]struct {
		cfg     Config
		prepare func(dir string) error
	}{
		"idist.btree cannot be created": {Config{Seed: 35}, func(dir string) error { return os.Mkdir(filepath.Join(dir, "idist.btree"), 0o755) }},
		"pages too small for a tree":    {Config{Seed: 35, PageSize: 32}, func(string) error { return nil }},
	} {
		dir := t.TempDir()
		if err := tc.prepare(dir); err != nil {
			t.Fatal(err)
		}
		fds := leaktest.OpenFDs(t)
		if idx, err := Build(context.Background(), pts, dir, tc.cfg); err == nil {
			idx.Close()
			t.Fatalf("%s: Build succeeded", name)
		}
		if got := leaktest.OpenFDs(t); got != fds {
			t.Fatalf("%s: %d open fds after the failed build, %d before", name, got, fds)
		}
	}
}
