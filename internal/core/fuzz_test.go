package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// legacyOptions, legacyGroupMeta and legacyCoreMeta mirror what promips.meta
// carried while it still held retired persisted values: the same exported
// fields, by name, plus the benchmark-only MissLatency, Fsync as the policy
// enum it was (0 fsync-always, 1 fsync-never, 2 no journal), the per-point
// 1-norms and sign codes Quick-Probe's groups are built from, and each
// group's member count.
type legacyOptions struct {
	C, P           float64
	M              int
	Kp, Nkey, Ksp  int
	Epsilon        float64
	PageSize       int
	PoolSize       int
	MissLatency    time.Duration
	Seed           int64
	Fsync          int
	SegmentEntries int
}

type legacyGroupMeta struct {
	Code     uint32
	MinNorm1 float64
	MinID    uint32
	Count    int
}

type legacyCoreMeta struct {
	Opts       legacyOptions
	N, D, M    int
	Projector  []byte
	Norm2Sq    []float64
	Norm1      []float64
	Codes      []uint32
	MaxNorm2Sq float64
	Groups     []legacyGroupMeta
	Delta      []deltaMeta
	Deleted    []uint32
	Sketch     []byte
}

// legacyMetaBytes re-encodes a real meta the way the old type wrote it,
// with set applied to it.
func legacyMetaBytes(tb testing.TB, real []byte, set func(*legacyCoreMeta)) []byte {
	tb.Helper()
	var old legacyCoreMeta
	if err := gob.NewDecoder(bytes.NewReader(real)).Decode(&old); err != nil {
		tb.Fatal(err)
	}
	set(&old)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// retiredValues are the persisted values older versions wrote that this one
// no longer has, each with what it decodes to.
var retiredValues = []struct {
	name      string
	set       func(*legacyCoreMeta)
	wantFsync int // Options.Fsync after decoding
}{
	// Gob skips a stream field the receiver lacks: the value is dropped.
	{"MissLatency", func(m *legacyCoreMeta) { m.Opts.MissLatency = 50 * time.Millisecond }, 0},
	// The buffered policy: read, and then ignored — Open replays wal.log.
	{"Fsync=1", func(m *legacyCoreMeta) { m.Opts.Fsync = 1 }, 1},
	// The no-journal policy: read, so Open can discard a stale wal.log.
	{"Fsync=2", func(m *legacyCoreMeta) { m.Opts.Fsync = 2 }, retiredNoJournal},
	// Build-time Quick-Probe state: dropped like MissLatency.
	{"Norm1, Codes and group counts", func(m *legacyCoreMeta) {
		m.Norm1, m.Codes = make([]float64, m.N), make([]uint32, m.N)
		for i := range m.Groups {
			m.Groups[i].Count = 1
		}
	}, 0},
}

// TestDecodeMetaRetiredValues: a meta carrying a retired persisted value
// decodes through the decoder Open uses into exactly what the same meta
// decodes to without it — apart from Options.Fsync, the one retired value
// still read.
func TestDecodeMetaRetiredValues(t *testing.T) {
	real := realMetaBytes(t)
	want, err := decodeCoreMeta(bytes.NewReader(real))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range retiredValues {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decodeCoreMeta(bytes.NewReader(legacyMetaBytes(t, real, tc.set)))
			if err != nil {
				t.Fatalf("legacy meta: %v", err)
			}
			if got.Opts.Fsync != tc.wantFsync {
				t.Fatalf("Opts.Fsync decoded to %d, want %d", got.Opts.Fsync, tc.wantFsync)
			}
			got.Opts.Fsync = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("legacy meta decoded to\n%+v\nwant\n%+v", got.Opts, want.Opts)
			}
		})
	}
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
	for _, rv := range retiredValues {
		f.Add(legacyMetaBytes(f, real, rv.set))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCoreMeta(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, errs.ErrCorruptIndex) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		// Validation passed: the invariants the search path relies on hold.
		if len(m.Norm2Sq) != m.N {
			t.Fatalf("validated meta with %d norms for n=%d", len(m.Norm2Sq), m.N)
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

// TestOpenCorruptStoreHeader: an orig.data header that does not describe
// the file, or that disagrees with promips.meta's shape, fails Open with
// ErrCorruptIndex — never a panic at Open or at the first Search. The index
// is 600 points of dim 100 on 4 KiB pages, 10 vectors to a page; dim 101
// gives the same 10, so only the meta can refuse it.
func TestOpenCorruptStoreHeader(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	data := randData(r, 600, 100)
	dir := t.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 24, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	path := filepath.Join(dir, "orig.data")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field string
		off   int
		v     uint32
	}{
		{"perPage", 12, 0},
		{"perPage", 12, 1000},
		{"n", 8, 10},
		{"n", 8, 601},
		{"dim", 4, 0},
		{"dim", 4, 101},
	} {
		b := bytes.Clone(orig)
		binary.LittleEndian.PutUint32(b[c.off:], c.v)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err == nil {
			_, _, serr := re.Search(data[0], 10)
			re.Close()
			t.Fatalf("%s = %d: Open succeeded (Search: %v)", c.field, c.v, serr)
		}
		if !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("%s = %d: err = %v, want ErrCorruptIndex", c.field, c.v, err)
		}
	}
}
