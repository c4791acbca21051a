package idistance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"promips/internal/errs"
)

// testdata/legacy is an index directory written by the last commit that kept
// the ring directory in a B+-tree (3681998): idistance.Build over
// randPoints(rand.New(rand.NewSource(40)), 300, 4, 10) with Config{Kp: 3,
// Nkey: 8, Ksp: 10, Seed: 41, PageSize: 256}, then Save. Its idist.meta has
// no RingKeys; its idist.btree is 36 pages — page 0 the meta page, pages 1–3
// the leaf chain (21 keys, the seventh of page 1 the first inline value),
// then the overflow chains of one and two pages, and the root last.
const legacyPageSize = 256

// copyLegacyFixture copies testdata/legacy into a temporary directory, so a
// test may Save over it or damage it.
func copyLegacyFixture(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// legacyDataPages is the page count of the fixture's idist.data.
func legacyDataPages(t testing.TB) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join("testdata", "legacy", "idist.data"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size() / legacyPageSize
}

type legacyCase struct {
	name   string
	damage func(b []byte) []byte
	dir    bool // the tree stays well-formed; a ring directory in it does not
}

// legacyCorruptions returns the fixture's idist.btree and named damages to
// it, each of which Open must refuse with ErrCorruptIndex: the legacy reader
// refuses a damaged tree, the ring-directory checks a damaged directory.
func legacyCorruptions(t testing.TB) ([]byte, []legacyCase) {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "legacy", "idist.btree"))
	if err != nil {
		t.Fatal(err)
	}
	const ps = legacyPageSize
	le := binary.LittleEndian
	leaf := ps + legacyHeader // page 1's first entry, an overflow value
	inl := leaf               // page 1's first inline entry
	for file[inl+8] != 0 {
		inl += legacyEntry + 8
	}
	ovHead := 1 // the first overflow chain of more than one page
	for int(le.Uint64(file[ovHead*ps:])) != ovHead+1 {
		ovHead++
	}
	at := func(off int, put func(b []byte)) func(b []byte) []byte {
		return func(b []byte) []byte { put(b[off:]); return b }
	}
	u64 := func(off int, v uint64) func(b []byte) []byte {
		return at(off, func(b []byte) { le.PutUint64(b, v) })
	}
	u32 := func(off int, v uint32) func(b []byte) []byte {
		return at(off, func(b []byte) { le.PutUint32(b, v) })
	}
	return file, []legacyCase{
		{"bad magic", at(0, func(b []byte) { b[0] ^= 1 }), false},
		{"key count one short", u64(24, le.Uint64(file[24:])-1), false},
		{"leaf key count past the page", at(ps+1, func(b []byte) { le.PutUint16(b, 0xffff) }), false},
		{"leaf next cycle", u64(2*ps+8, 1), false},
		{"leaf chain never ends", u64(ps+8, 1), false},
		{"leaf chain ends early", u64(ps+8, math.MaxUint64), false},
		{"leaf next off the file", u64(ps+8, 1<<40), false},
		{"leaf next to the meta page", u64(ps+8, 0), false},
		{"leaf next into an overflow chain", u64(ps+8, uint64(ovHead)), false},
		{"leaf flag unknown", at(leaf+8, func(b []byte) { b[0] = 9 }), false},
		{"inline length byte flip", at(inl+9+3, func(b []byte) { b[0] = 0x7f }), false},
		{"overflow length past the file", u32(leaf+9, 0x7fffffff), false},
		{"truncated overflow chain", u64(ovHead*ps, math.MaxUint64), false},
		{"overflow chain loops", u64(ovHead*ps, uint64(ovHead)), false},
		{"overflow used past page", u32(ovHead*ps+8, 0x7fffffff), false},
		{"overflow used zero", u32(ovHead*ps+8, 0), false},
		{"overflow next off the file", u64(ovHead*ps, 1<<50), false},
		{"sub-partition count 1000", u32(inl+legacyEntry, 1000), true},
		{"sub-partition run past the data file", u64(inl+legacyEntry+4, 1<<40), true},
		{"sub-partition slot past the page", u32(inl+legacyEntry+4+8, 1<<20), true},
		{"sub-partition points off by one", at(inl+legacyEntry+4+12, func(b []byte) { le.PutUint32(b, le.Uint32(b)+1) }), true},
		{"negative radius", u64(inl+legacyEntry+4+16, math.Float64bits(-1)), true},
		{"duplicate ring key", u64(leaf+legacyEntry+8, le.Uint64(file[leaf:])), true},
		{"ring key past the partitions", u64(inl, 1<<40), true},
	}
}

// TestLegacyRingDirsCorrupt: each damage to the fixture's tree is refused
// with ErrCorruptIndex by the layer that owns it — the legacy reader for the
// leaf chain and the overflow chains, the ring-directory checks for the
// directories a well-formed tree holds (one of which, a sub-partition count
// raised from 1 to 1000, used to panic the first query).
func TestLegacyRingDirsCorrupt(t *testing.T) {
	file, cases := legacyCorruptions(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "idist.meta"))
	if err != nil {
		t.Fatal(err)
	}
	m, pages := decodeMetaBytes(t, raw), legacyDataPages(t)
	keys, dirs, err := legacyRingDirs(file, legacyPageSize)
	if err != nil {
		t.Fatalf("undamaged tree: %v", err)
	}
	if _, err := m.ringDirectory(keys, dirs, pages); err != nil {
		t.Fatalf("undamaged ring directory: %v", err)
	}
	for _, tc := range cases {
		keys, dirs, err := legacyRingDirs(tc.damage(bytes.Clone(file)), legacyPageSize)
		if !tc.dir {
			if !errors.Is(err, errs.ErrCorruptIndex) {
				t.Errorf("%s: legacy reader returned %v, want ErrCorruptIndex", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: legacy reader refused a well-formed tree: %v", tc.name, err)
			continue
		}
		if _, err := m.ringDirectory(keys, dirs, pages); !errors.Is(err, errs.ErrCorruptIndex) {
			t.Errorf("%s: ring directory check returned %v, want ErrCorruptIndex", tc.name, err)
		}
	}
}

// TestOpenRejectsGarbageTree: an idist.btree of garbage — empty, one page,
// four pages — beside a legacy meta is ErrCorruptIndex at Open.
func TestOpenRejectsGarbageTree(t *testing.T) {
	dir := copyLegacyFixture(t)
	for _, size := range []int{0, legacyPageSize, 4 * legacyPageSize} {
		if err := os.WriteFile(filepath.Join(dir, "idist.btree"), bytes.Repeat([]byte{0x5A}, size), 0o644); err != nil {
			t.Fatal(err)
		}
		refuseOpen(t, fmt.Sprintf("%d bytes of garbage", size), dir)
	}
}

// TestOpenLegacyIndex is the compatibility proof for moving the ring
// directory into idist.meta: the fixture opens, answers range searches
// exactly and fetches every projected point; a Save writes the directory
// into the meta, and the reopened index holds the same rings without
// reading idist.btree again.
func TestOpenLegacyIndex(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(40)), 300, 4, 10)
	dir := copyLegacyFixture(t)
	legacy, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		q := randPoints(r, 1, 4, 10)[0]
		radius := 2 + r.Float64()*15
		want := bruteRange(pts, q, radius)
		got, err := rangeSearch(legacy, q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: range search found %d, brute force %d", trial, len(got), len(want))
		}
		for _, c := range got {
			if _, ok := want[c.ID]; !ok {
				t.Fatalf("trial %d: spurious candidate %d", trial, c.ID)
			}
		}
	}
	for pos, id := range legacy.Layout() {
		got, err := legacy.Projected(pos, nil, nil)
		if err != nil || !slices.Equal(got, pts[id]) {
			t.Fatalf("Projected(%d) = %v, %v; want point %d = %v", pos, got, err, id, pts[id])
		}
	}

	if err := legacy.Save(dir); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, "idist.meta"))
	if err != nil {
		t.Fatal(err)
	}
	if m := decodeMetaBytes(t, saved); len(m.RingKeys) != len(legacy.rings) {
		t.Fatalf("saved meta holds %d ring keys, want %d", len(m.RingKeys), len(legacy.rings))
	}
	if err := os.WriteFile(filepath.Join(dir, "idist.btree"), []byte("not a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	converted, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Save: %v", err)
	}
	defer converted.Close()
	if !reflect.DeepEqual(converted.rings, legacy.rings) {
		t.Fatal("the ring directory changed across Save")
	}
}

// TestLegacyRingDirsInsertBuilt: testdata/insert_built.btree is a tree the
// insert engine wrote before trees were bulk-loaded (256-byte pages, three
// levels, half-full leaves in split order, one three-page overflow value,
// lazily deleted keys) and insert_built.txt the key → value list it held.
// That engine also grew its leaf chain from page 1, so the legacy reader
// reads its trees too.
func TestLegacyRingDirsInsertBuilt(t *testing.T) {
	f, err := os.Open("testdata/insert_built.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keys []int64
	var values [][]byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var k int64
		ks, vs, _ := strings.Cut(sc.Text(), " ")
		if _, err := fmt.Sscan(ks, &k); err != nil {
			t.Fatal(err)
		}
		v, err := hex.DecodeString(vs)
		if err != nil {
			t.Fatal(err)
		}
		keys, values = append(keys, k), append(values, v)
	}
	b, err := os.ReadFile("testdata/insert_built.btree")
	if err != nil {
		t.Fatal(err)
	}
	gotK, gotV, err := legacyRingDirs(b, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 200 || !slices.Equal(gotK, keys) {
		t.Fatalf("read %d keys, fixture lists %d (or they differ)", len(gotK), len(keys))
	}
	for i := range keys {
		if !bytes.Equal(gotV[i], values[i]) {
			t.Fatalf("key %d: %d-byte value, want %d bytes", keys[i], len(gotV[i]), len(values[i]))
		}
	}
}

// FuzzLegacyRingDirs feeds the legacy reader, and the ring-directory checks
// after it, arbitrary tree bytes under the fixture's meta: whatever they
// hold, both return — no panic, no endless walk — and fail only with
// ErrCorruptIndex.
func FuzzLegacyRingDirs(f *testing.F) {
	file, cases := legacyCorruptions(f)
	f.Add(file)
	for _, tc := range cases {
		f.Add(tc.damage(bytes.Clone(file)))
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "idist.meta"))
	if err != nil {
		f.Fatal(err)
	}
	m, pages := decodeMetaBytes(f, raw), legacyDataPages(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		keys, dirs, err := legacyRingDirs(b, legacyPageSize)
		if err == nil {
			_, err = m.ringDirectory(keys, dirs, pages)
		}
		if err != nil && !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("failed with %v, want ErrCorruptIndex", err)
		}
	})
}

// FuzzIdistMetaDecode feeds Open's meta path arbitrary idist.meta bytes
// beside the fixture's data and tree files: decoding, validation and the
// ring directory — from the meta, or from the tree when the meta has none —
// fail only with ErrCorruptIndex, never a panic. Seeds: the fixture's legacy
// meta, the meta a Save converts it to, and that meta with a sub-partition
// one slot off its layout position (which Open used to accept).
func FuzzIdistMetaDecode(f *testing.F) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy", "idist.meta"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	dir := copyLegacyFixture(f)
	idx, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	err = idx.Save(dir)
	idx.Close()
	if err != nil {
		f.Fatal(err)
	}
	converted, err := os.ReadFile(filepath.Join(dir, "idist.meta"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(converted)
	m := decodeMetaBytes(f, converted)
	misplaceFirstSub(m)
	f.Add(encodeMeta(f, m))
	pages := legacyDataPages(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMeta(bytes.NewReader(b))
		if err == nil {
			_, err = m.loadRings(filepath.Join("testdata", "legacy"), pages)
		}
		if err != nil && !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("failed with %v, want ErrCorruptIndex", err)
		}
	})
}
