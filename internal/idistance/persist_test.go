package idistance

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
	if _, err := os.Stat(filepath.Join(dir, "idist.btree")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Build wrote a B+-tree file (stat: %v)", err)
	}
	q := randPoints(r, 1, 6, 10)[0]
	want, err := rangeSearch(idx, q, 8)
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
	got, err := rangeSearch(re, q, 8)
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

// TestRingDirectoryReopen: the ring directory a Save writes into idist.meta
// opens back to exactly the built rings on every reopen, and a Save of a
// reopened index writes the same meta bytes.
func TestRingDirectoryReopen(t *testing.T) {
	dir := t.TempDir()
	idx, err := Build(context.Background(), randPoints(rand.New(rand.NewSource(36)), 900, 6, 10), dir,
		Config{Kp: 4, Nkey: 15, Ksp: 12, Seed: 37, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, "idist.meta"))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(re.rings, idx.rings) {
			re.Close()
			t.Fatalf("pass %d: reopened ring directory differs from the built one", pass)
		}
		again := t.TempDir()
		err = re.Save(again)
		re.Close()
		if err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(filepath.Join(again, "idist.meta")); err != nil || !bytes.Equal(b, saved) {
			t.Fatalf("pass %d: re-saved meta differs from the saved one (%v)", pass, err)
		}
	}
}

func TestOpenMissingMeta(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("expected error opening empty dir")
	}
}

// decodeMetaBytes decodes the idist.meta bytes b.
func decodeMetaBytes(t testing.TB, b []byte) *meta {
	t.Helper()
	m, err := decodeMeta(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// encodeMeta gob-encodes m the way Save does.
func encodeMeta(t testing.TB, m *meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refuseOpen asserts Open(dir) is ErrCorruptIndex and leaves no descriptor
// open.
func refuseOpen(t *testing.T, name, dir string) {
	t.Helper()
	fds := leaktest.OpenFDs(t)
	if re, err := Open(dir); !errors.Is(err, errs.ErrCorruptIndex) {
		if err == nil {
			re.Close()
		}
		t.Errorf("%s: Open returned %v, want ErrCorruptIndex", name, err)
	}
	if got := leaktest.OpenFDs(t); got != fds {
		t.Errorf("%s: %d open fds after the refused Open, %d before", name, got, fds)
	}
}

// TestOpenCorruptMeta: every value of idist.meta a search or a Projected
// fetch indexes by is checked at Open. The first case is a shown bug: a
// sub-partition stored one slot off its layout position used to open, and
// its scan handed out candidates whose Pos named another point's vector.
func TestOpenCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	idx, err := Build(context.Background(), randPoints(rand.New(rand.NewSource(30)), 900, 6, 10), dir,
		Config{Kp: 4, Nkey: 15, Ksp: 6, Seed: 31, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	metaPath := filepath.Join(dir, "idist.meta")
	saved, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	last := len(decodeMetaBytes(t, saved).RingKeys) - 1
	for _, tc := range []struct {
		name   string
		damage func(m *meta)
	}{
		{"sub-partition off its layout position", misplaceFirstSub},
		{"layout cut to 10 entries", func(m *meta) { m.Layout = m.Layout[:10] }},
		{"layout id past n", func(m *meta) { m.Layout[3] = uint32(m.N) }},
		{"layout id placed twice", func(m *meta) { m.Layout[3] = m.Layout[4] }},
		{"n one past the ring directory", func(m *meta) { m.N, m.Layout = m.N+1, append(m.Layout, uint32(m.N)) }},
		{"no partitions", func(m *meta) { m.Centers, m.Radii = nil, nil }},
		{"radii one short", func(m *meta) { m.Radii = m.Radii[1:] }},
		{"center of the wrong dim", func(m *meta) { m.Centers[1] = m.Centers[1][1:] }},
		{"entries per page off by one", func(m *meta) { m.EntriesPerPage++ }},
		{"page size zero", func(m *meta) { m.Cfg.PageSize = 0 }},
		{"zero stride", func(m *meta) { m.Stride = 0 }},
		{"NaN ring width", func(m *meta) { m.Epsilon = math.NaN() }},
		{"infinite ring width", func(m *meta) { m.Epsilon = math.Inf(1) }},
		{"ring keys descending", func(m *meta) { m.RingKeys[0], m.RingKeys[1] = m.RingKeys[1], m.RingKeys[0] }},
		{"negative ring key", func(m *meta) { m.RingKeys[0] = -1 }},
		{"ring key past the partitions", func(m *meta) { m.RingKeys[last] = int64(len(m.Centers)) * m.Stride }},
		{"one key past the directories", func(m *meta) { m.RingKeys = append(m.RingKeys, m.RingKeys[last]+1) }},
		{"directories one byte short", func(m *meta) { m.RingDirs = m.RingDirs[:len(m.RingDirs)-1] }},
		{"directories one byte long", func(m *meta) { m.RingDirs = append(m.RingDirs, 0) }},
		{"first directory counts 1000", func(m *meta) { binary.LittleEndian.PutUint32(m.RingDirs, 1000) }},
	} {
		m := decodeMetaBytes(t, saved)
		tc.damage(m)
		if err := os.WriteFile(metaPath, encodeMeta(t, m), 0o644); err != nil {
			t.Fatal(err)
		}
		refuseOpen(t, tc.name, dir)
	}
	if err := os.WriteFile(metaPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("undamaged meta: %v", err)
	}
	re.Close()
	// The undamaged meta over a data file one page short: the last
	// sub-partition's page run is past its end.
	dataPath := filepath.Join(dir, "idist.data")
	fi, err := os.Stat(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(dataPath, fi.Size()-512); err != nil {
		t.Fatal(err)
	}
	refuseOpen(t, "data file one page short", dir)
}

// TestOpenCorruptTree: a damaged legacy idist.btree — its leaf chain, its
// overflow chains, or a ring directory inside a well-formed tree — is
// ErrCorruptIndex at Open, and the page file Open had opened is closed
// again. Two cases are shown bugs: one damaged length byte in a leaf entry
// used to panic Open with a slice bound of 2130706561, and a sub-partition
// count raised from 1 to 1000 with the value length left intact used to
// open and panic the first query with an index out of range.
func TestOpenCorruptTree(t *testing.T) {
	file, cases := legacyCorruptions(t)
	dir := copyLegacyFixture(t)
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("undamaged tree: %v", err)
	}
	re.Close()
	for _, tc := range cases {
		if err := os.WriteFile(filepath.Join(dir, "idist.btree"), tc.damage(bytes.Clone(file)), 0o644); err != nil {
			t.Fatal(err)
		}
		refuseOpen(t, tc.name, dir)
	}
}

// misplaceFirstSub moves the first sub-partition of m's first ring directory
// one slot past its layout position.
func misplaceFirstSub(m *meta) {
	slot := m.RingDirs[4+8:]
	binary.LittleEndian.PutUint32(slot, binary.LittleEndian.Uint32(slot)+1)
}

// TestBuildFailureClosesFiles: a Build that cannot create its page file
// leaves no descriptor open.
func TestBuildFailureClosesFiles(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(34)), 300, 6, 10)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "idist.data"), 0o755); err != nil {
		t.Fatal(err)
	}
	fds := leaktest.OpenFDs(t)
	if idx, err := Build(context.Background(), pts, dir, Config{Seed: 35}); err == nil {
		idx.Close()
		t.Fatal("idist.data cannot be created: Build succeeded")
	}
	if got := leaktest.OpenFDs(t); got != fds {
		t.Fatalf("%d open fds after the failed build, %d before", got, fds)
	}
}
