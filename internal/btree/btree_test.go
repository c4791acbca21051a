package btree

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
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"promips/internal/errs"
	"promips/internal/pager"
)

// buildFile bulk-loads keys → values into a fresh page file and returns its
// path.
func buildFile(t testing.TB, pageSize int, keys []int64, values [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bt.db")
	w, err := pager.Create(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := Build(w, keys, values); err != nil {
		t.Fatal(err)
	}
	pg, err := w.Finish(pager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openFile opens the tree in the page file at path.
func openFile(t testing.TB, path string, pageSize int) (*Tree, error) {
	t.Helper()
	pg, err := pager.Open(path, pager.Options{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	return Open(pg)
}

func newTestTree(t testing.TB, pageSize int, keys []int64, values [][]byte) *Tree {
	t.Helper()
	tr, err := openFile(t, buildFile(t, pageSize, keys, values), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// scanAll returns every (key, value) of tr in [lo, hi].
func scanAll(t testing.TB, tr *Tree, lo, hi int64) ([]int64, [][]byte) {
	t.Helper()
	var keys []int64
	var vals [][]byte
	err := tr.Scan(lo, hi, nil, func(k int64, v []byte) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// checkModel asserts tr holds exactly keys → values: a full scan, a point
// scan of every key and of a gap beside it.
func checkModel(t testing.TB, tr *Tree, keys []int64, values [][]byte) {
	t.Helper()
	gotK, gotV := scanAll(t, tr, math.MinInt64, math.MaxInt64)
	if !slices.Equal(gotK, keys) {
		t.Fatalf("full scan returned %d keys, want %d (or out of order)", len(gotK), len(keys))
	}
	for i := range keys {
		if !bytes.Equal(gotV[i], values[i]) {
			t.Fatalf("key %d: %d-byte value, want %d bytes", keys[i], len(gotV[i]), len(values[i]))
		}
		k, v := scanAll(t, tr, keys[i], keys[i])
		if len(k) != 1 || k[0] != keys[i] || !bytes.Equal(v[0], values[i]) {
			t.Fatalf("point scan of key %d returned %v", keys[i], k)
		}
		if i > 0 && keys[i-1] < keys[i]-1 {
			if k, _ := scanAll(t, tr, keys[i-1]+1, keys[i]-1); len(k) != 0 {
				t.Fatalf("scan of the gap below key %d returned %v", keys[i], k)
			}
		}
	}
}

// seqKeys returns n keys 0, step, 2·step, … with short distinct values.
func seqKeys(n int, step int64) ([]int64, [][]byte) {
	keys, values := make([]int64, n), make([][]byte, n)
	for i := range keys {
		keys[i] = int64(i) * step
		values[i] = []byte(fmt.Sprintf("value-%d", i))
	}
	return keys, values
}

// TestInsertGetSingle keeps its name from the Insert/Get API: a one-key tree
// returns that key to a scan that covers it and nothing to one that does not.
func TestInsertGetSingle(t *testing.T) {
	tr := newTestTree(t, 256, []int64{42}, [][]byte{[]byte("hello")})
	checkModel(t, tr, []int64{42}, [][]byte{[]byte("hello")})
	if k, _ := scanAll(t, tr, 43, math.MaxInt64); len(k) != 0 {
		t.Fatalf("scan above the only key returned %v", k)
	}
	if tr.height != 1 {
		t.Fatalf("height %d, want 1", tr.height)
	}
}

func TestBuildEmptyTree(t *testing.T) {
	tr := newTestTree(t, 256, nil, nil)
	checkModel(t, tr, nil, nil)
}

// TestManyInsertsWithSplits keeps its name from the Insert API: enough keys
// for three levels at every page size, against the model.
func TestManyInsertsWithSplits(t *testing.T) {
	for _, tc := range []struct{ pageSize, n int }{{256, 2000}, {512, 6000}, {4096, 60000}} {
		keys, values := seqKeys(tc.n, 3)
		tr := newTestTree(t, tc.pageSize, keys, values)
		if tr.height < 3 {
			t.Fatalf("page size %d: height %d with %d keys, want ≥ 3", tc.pageSize, tr.height, tc.n)
		}
		if tc.n > 6000 { // the exhaustive point scans are quadratic in leaves visited
			gotK, _ := scanAll(t, tr, math.MinInt64, math.MaxInt64)
			if !slices.Equal(gotK, keys) {
				t.Fatalf("page size %d: full scan differs from the model", tc.pageSize)
			}
			continue
		}
		checkModel(t, tr, keys, values)
	}
}

func TestNegativeAndExtremeKeys(t *testing.T) {
	keys := []int64{math.MinInt64, -1 << 62, -1000, -1, 0, 1, 1000, 1 << 62, math.MaxInt64}
	values := make([][]byte, len(keys))
	for i, k := range keys {
		values[i] = []byte{byte(k & 0xff)}
	}
	checkModel(t, newTestTree(t, 256, keys, values), keys, values)
}

// TestOverflowValues: values around the inline threshold and across one and
// many overflow pages, at each page size.
func TestOverflowValues(t *testing.T) {
	for _, pageSize := range []int{256, 512, 4096} {
		im, chunk := inlineMax(pageSize), pageSize-ovHeader
		sizes := []int{0, 1, im - 1, im, im + 1, chunk - 1, chunk, chunk + 1, 3*chunk + 7, 10 * chunk}
		r := rand.New(rand.NewSource(5))
		keys, values := make([]int64, len(sizes)), make([][]byte, len(sizes))
		for i, sz := range sizes {
			keys[i] = int64(i)
			values[i] = make([]byte, sz)
			r.Read(values[i])
		}
		checkModel(t, newTestTree(t, pageSize, keys, values), keys, values)
	}
}

func TestScanFullRange(t *testing.T) {
	keys, values := seqKeys(500, 2)
	tr := newTestTree(t, 256, keys, values)
	got, _ := scanAll(t, tr, -100, 1<<40)
	if !slices.Equal(got, keys) {
		t.Fatalf("scan visited %d keys, want %d in order", len(got), len(keys))
	}
}

func TestScanSubRangeAndEarlyStop(t *testing.T) {
	keys, values := seqKeys(100, 1)
	tr := newTestTree(t, 256, keys, values)
	got, _ := scanAll(t, tr, 10, 20)
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("sub-range scan = %v", got)
	}
	got = nil
	tr.Scan(0, 99, nil, func(k int64, v []byte) bool {
		got = append(got, k)
		return len(got) < 5
	})
	if len(got) != 5 {
		t.Fatalf("early stop visited %d", len(got))
	}
	if got, _ := scanAll(t, tr, 50, 40); len(got) != 0 {
		t.Fatalf("lo>hi should visit nothing, got %v", got)
	}
}

// TestScanAccountsPages: every node and overflow page a scan touches is one
// logical access in the caller's IOStats.
func TestScanAccountsPages(t *testing.T) {
	keys, values := seqKeys(2000, 1)
	values[1000] = bytes.Repeat([]byte{7}, 3*(256-ovHeader))
	tr := newTestTree(t, 256, keys, values)
	var io pager.IOStats
	if err := tr.Scan(1000, 1000, &io, func(int64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if want := int64(tr.height + 3); io.Pages() != want {
		t.Fatalf("point scan of an overflow value touched %d pages, want %d", io.Pages(), want)
	}
}

func TestPersistenceReopen(t *testing.T) {
	keys, values := seqKeys(300, 1)
	values[150] = bytes.Repeat([]byte{9}, 3000)
	path := buildFile(t, 512, keys, values)
	for pass := 0; pass < 2; pass++ {
		tr, err := openFile(t, path, 512)
		if err != nil {
			t.Fatal(err)
		}
		checkModel(t, tr, keys, values)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	for _, size := range []int{0, 256, 1024} {
		if err := os.WriteFile(path, bytes.Repeat([]byte{0x5A}, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openFile(t, path, 256); !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("%d bytes of garbage: Open returned %v, want ErrCorruptIndex", size, err)
		}
	}
}

// TestCreateRejectsNonEmptyPager keeps its name from btree.Create: Build
// refuses a file that already has pages, and one whose pages are too small.
func TestCreateRejectsNonEmptyPager(t *testing.T) {
	w, err := pager.Create(filepath.Join(t.TempDir(), "x.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Alloc()
	if err := Build(w, nil, nil); err == nil {
		t.Fatal("expected error building a tree in a non-empty file")
	}
	small, err := pager.Create(filepath.Join(t.TempDir(), "s.db"), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if err := Build(small, []int64{1}, [][]byte{{1}}); err == nil {
		t.Fatal("expected error building a tree on 32-byte pages")
	}
}

func TestBuildRejectsUnsortedKeys(t *testing.T) {
	for name, keys := range map[string][]int64{"descending": {1, 3, 2}, "duplicate": {1, 2, 2}} {
		w, err := pager.Create(filepath.Join(t.TempDir(), "x.db"), 256)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := Build(w, keys, make([][]byte, len(keys))); err == nil {
			t.Fatalf("%s keys accepted", name)
		}
		if w.NumPages() != 0 {
			t.Fatalf("%s keys: %d pages written before the rejection", name, w.NumPages())
		}
	}
	w, err := pager.Create(filepath.Join(t.TempDir(), "y.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := Build(w, []int64{1, 2}, [][]byte{nil}); err == nil {
		t.Fatal("two keys with one value accepted")
	}
}

// Property: a tree built from any sorted key set with any mix of inline and
// overflow values scans exactly like the sorted map it was built from.
func TestPropertyModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pageSize := []int{256, 512, 4096}[r.Intn(3)]
		model := make(map[int64][]byte)
		for i := r.Intn(600); i > 0; i-- {
			v := make([]byte, r.Intn(80))
			if r.Intn(40) == 0 {
				v = make([]byte, r.Intn(3*pageSize))
			}
			r.Read(v)
			model[int64(r.Intn(4000)-500)] = v
		}
		keys := make([]int64, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		values := make([][]byte, len(keys))
		for i, k := range keys {
			values[i] = model[k]
		}
		tr := newTestTree(t, pageSize, keys, values)
		lo, hi := int64(r.Intn(4000)-500), int64(r.Intn(4000)-500)
		var got []int64
		err := tr.Scan(lo, hi, nil, func(k int64, v []byte) bool {
			got = append(got, k)
			return bytes.Equal(v, model[k])
		})
		var want []int64
		for _, k := range keys {
			if lo <= k && k <= hi {
				want = append(want, k)
			}
		}
		return err == nil && slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenInsertBuiltTree is the compatibility proof: testdata holds a tree
// the previous commit built with Insert and Delete (256-byte pages, three
// levels, half-full leaves in split order, one three-page overflow value,
// lazily deleted keys) and the key → value list it held. Index directories
// written before the bulk loader must keep opening.
func TestOpenInsertBuiltTree(t *testing.T) {
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
	tr, err := openFile(t, "testdata/insert_built.btree", 256)
	if err != nil {
		t.Fatal(err)
	}
	if tr.height < 3 || len(keys) < 200 {
		t.Fatalf("fixture has height %d and %d keys", tr.height, len(keys))
	}
	checkModel(t, tr, keys, values)
}

// corruptions returns named single-field damages to a built tree's file, each
// of which Open or a full Scan must report as ErrCorruptIndex. The tree is
// 256-byte pages, page 0 the meta page and page 1 the first leaf.
func corruptions(t testing.TB) (file []byte, cases map[string]func(b []byte)) {
	keys, values := seqKeys(400, 1)
	values[0] = bytes.Repeat([]byte{3}, 20)
	values[200] = bytes.Repeat([]byte{7}, 600) // overflow chain of three pages
	file, err := os.ReadFile(buildFile(t, 256, keys, values))
	if err != nil {
		t.Fatal(err)
	}
	const ps = 256
	root := int(binary.LittleEndian.Uint64(file[8:]))
	ovHead := -1
	for p := 1; p*ps < len(file) && ovHead < 0; p++ { // the chain follows the leaves
		if file[p*ps] > nodeInner {
			ovHead = p
		}
	}
	le := binary.LittleEndian
	return file, map[string]func(b []byte){
		"inline length byte flip":  func(b []byte) { b[ps+headerSize+9+3] = 0x7f },
		"nk past the page":         func(b []byte) { le.PutUint16(b[ps+1:], 0xffff) },
		"inner nk past the page":   func(b []byte) { le.PutUint16(b[root*ps+1:], 0xffff) },
		"child id out of range":    func(b []byte) { le.PutUint64(b[root*ps+headerSize+8*int(le.Uint16(b[root*ps+1:])):], 1<<40) },
		"child id negative":        func(b []byte) { le.PutUint64(b[root*ps+headerSize+8*int(le.Uint16(b[root*ps+1:])):], 1<<63) },
		"child reached twice":      func(b []byte) { le.PutUint64(b[root*ps+headerSize+8*int(le.Uint16(b[root*ps+1:])):], uint64(root)) },
		"leaf next cycle":          func(b []byte) { le.PutUint64(b[2*ps+8:], 1) },
		"leaf chain never ends":    func(b []byte) { le.PutUint64(b[1*ps+8:], 1) },
		"height 2^31":              func(b []byte) { le.PutUint32(b[16:], 1<<31) },
		"height 0":                 func(b []byte) { le.PutUint32(b[16:], 0) },
		"height one too many":      func(b []byte) { le.PutUint32(b[16:], le.Uint32(b[16:])+1) },
		"root out of range":        func(b []byte) { le.PutUint64(b[8:], uint64(len(b)/ps)) },
		"bad magic":                func(b []byte) { b[0] ^= 1 },
		"leaf flag unknown":        func(b []byte) { b[ps+headerSize+8] = 9 },
		"truncated overflow chain": func(b []byte) { le.PutUint64(b[ovHead*ps:], math.MaxUint64) },
		"overflow chain loops":     func(b []byte) { le.PutUint64(b[ovHead*ps:], uint64(ovHead)) },
		"overflow used past page":  func(b []byte) { le.PutUint32(b[ovHead*ps+8:], 0x7fffffff) },
		"overflow used zero":       func(b []byte) { le.PutUint32(b[ovHead*ps+8:], 0) },
		"overflow next off file":   func(b []byte) { le.PutUint64(b[ovHead*ps:], 1<<50) },
	}
}

// openAndScan opens the tree in file and scans all of it, the way the index
// uses a tree.
func openAndScan(t testing.TB, file []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.db")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := openFile(t, path, 256)
	if err != nil {
		return err
	}
	return tr.Scan(math.MinInt64, math.MaxInt64, nil, func(int64, []byte) bool { return true })
}

func TestOpenCorruptTree(t *testing.T) {
	file, cases := corruptions(t)
	if err := openAndScan(t, file); err != nil {
		t.Fatalf("undamaged tree: %v", err)
	}
	for name, damage := range cases {
		b := bytes.Clone(file)
		damage(b)
		if err := openAndScan(t, b); !errors.Is(err, errs.ErrCorruptIndex) {
			t.Errorf("%s: got %v, want ErrCorruptIndex", name, err)
		}
	}
}

// FuzzOpenTree feeds Open raw page bytes: whatever they hold, Open and a full
// Scan return — no panic, no endless walk — and fail only with
// ErrCorruptIndex.
func FuzzOpenTree(f *testing.F) {
	file, cases := corruptions(f)
	f.Add(file)
	for _, damage := range cases {
		b := bytes.Clone(file)
		damage(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b)-len(b)%256]
		if err := openAndScan(t, b); err != nil && !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("Open/Scan failed with %v, want ErrCorruptIndex", err)
		}
	})
}

func BenchmarkBuild(b *testing.B) {
	keys, values := seqKeys(10000, 1)
	for b.Loop() {
		w, err := pager.Create(filepath.Join(b.TempDir(), "bench.db"), 4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := Build(w, keys, values); err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
}

func BenchmarkScan(b *testing.B) {
	keys, values := seqKeys(10000, 1)
	tr := newTestTree(b, 4096, keys, values)
	for i := 0; b.Loop(); i++ {
		k := int64(i % 10000)
		tr.Scan(k, k+20, nil, func(int64, []byte) bool { return true })
	}
}
