package shard

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"promips"
)

func randData(r *rand.Rand, n, d int) [][]float32 {
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	return data
}

func buildPair(t *testing.T, data [][]float32, k int, opts promips.Options) (*promips.Index, *Index) {
	t.Helper()
	single, err := promips.Build(data, opts)
	if err != nil {
		t.Fatalf("single build: %v", err)
	}
	t.Cleanup(func() { single.Close() })
	sharded, err := Build(data, Options{Shards: k, Index: opts})
	if err != nil {
		t.Fatalf("sharded build: %v", err)
	}
	t.Cleanup(func() { sharded.Close() })
	return single, sharded
}

// ipBits fingerprints results as (id, float64 bit pattern) pairs.
func ipBits(res []promips.Result) [][2]uint64 {
	out := make([][2]uint64, len(res))
	for i, r := range res {
		out[i] = [2]uint64{uint64(r.ID), math.Float64bits(r.IP)}
	}
	return out
}

// TestExactMatchesSingleIndex pins the id-space emulation: a sharded index
// assigns the same global ids as a single index over the same build data
// and the same sequential update stream, and its Exact answers are
// byte-identical (ids and inner-product bits) at every K.
func TestExactMatchesSingleIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := randData(r, 90, 12)
	extra := randData(r, 24, 12)
	queries := randData(r, 10, 12)
	for _, k := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			single, sharded := buildPair(t, data, k, promips.Options{Seed: 11, M: 4})

			// Interleaved updates: both sides see the identical sequence and
			// must assign identical ids throughout.
			for i, v := range extra {
				wantID, err := single.Insert(v)
				if err != nil {
					t.Fatalf("single insert %d: %v", i, err)
				}
				gotID, err := sharded.Insert(v)
				if err != nil {
					t.Fatalf("sharded insert %d: %v", i, err)
				}
				if gotID != wantID {
					t.Fatalf("insert %d: sharded id %d, single id %d", i, gotID, wantID)
				}
				if i%3 == 0 {
					del := uint32(i * 4 % len(data))
					okS, err := single.DeleteChecked(del)
					if err != nil {
						t.Fatalf("single delete %d: %v", del, err)
					}
					okK, err := sharded.DeleteChecked(del)
					if err != nil {
						t.Fatalf("sharded delete %d: %v", del, err)
					}
					if okS != okK {
						t.Fatalf("delete %d: sharded=%v single=%v", del, okK, okS)
					}
				}
			}
			if got, want := sharded.LiveCount(), single.LiveCount(); got != want {
				t.Fatalf("live count: sharded %d, single %d", got, want)
			}
			for qi, q := range queries {
				want, err := single.Exact(context.Background(), q, 10)
				if err != nil {
					t.Fatalf("single exact: %v", err)
				}
				got, err := sharded.Exact(context.Background(), q, 10)
				if err != nil {
					t.Fatalf("sharded exact: %v", err)
				}
				if !reflect.DeepEqual(ipBits(got), ipBits(want)) {
					t.Fatalf("query %d: sharded Exact diverges\n got %v\nwant %v", qi, got, want)
				}
			}
		})
	}
}

// TestSingleShardIsPassThrough pins the K=1 special case: results AND
// stats byte-identical to the unsharded index — no probability re-split,
// no id remap, nothing.
func TestSingleShardIsPassThrough(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	data := randData(r, 200, 10)
	single, sharded := buildPair(t, data, 1, promips.Options{Seed: 5, M: 4, C: 0.8, P: 0.6})
	for qi := 0; qi < 10; qi++ {
		q := data[r.Intn(len(data))]
		wantRes, wantSt, err := single.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, gotSt, err := sharded.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("query %d: results diverge:\n got %v\nwant %v", qi, gotRes, wantRes)
		}
		if gotSt != wantSt {
			t.Fatalf("query %d: stats diverge:\n got %+v\nwant %+v", qi, gotSt, wantSt)
		}
	}
}

// TestShardedGuarantee checks the composed (c, p) contract as a property:
// over a query workload against a sharded index, the fraction of queries
// whose merged top-1 reaches c times the global exact top-1 must be at
// least p — the union-bound probability split has to deliver the
// whole-index guarantee, not a per-shard one.
func TestShardedGuarantee(t *testing.T) {
	cases := []struct {
		k    int
		c, p float64
	}{
		{k: 2, c: 0.9, p: 0.5},
		{k: 4, c: 0.8, p: 0.7},
		{k: 4, c: 0.9, p: 0.9},
	}
	r := rand.New(rand.NewSource(31))
	data := randData(r, 800, 16)
	for _, tc := range cases {
		t.Run(fmt.Sprintf("K=%d_c=%.1f_p=%.1f", tc.k, tc.c, tc.p), func(t *testing.T) {
			ix, err := Build(data, Options{
				Shards: tc.k,
				Index:  promips.Options{C: tc.c, P: tc.p, M: 5, Seed: 32},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			const numQueries = 20
			ok := 0
			for qi := 0; qi < numQueries; qi++ {
				q := data[r.Intn(len(data))]
				exact, err := ix.Exact(context.Background(), q, 1)
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := ix.Search(context.Background(), q, 1)
				if err != nil {
					t.Fatal(err)
				}
				if res[0].IP >= tc.c*exact[0].IP-1e-9 {
					ok++
				}
			}
			if minOK := int(tc.p * numQueries); ok < minOK {
				t.Errorf("%d/%d queries met the c=%.1f bound, need >= %d (p=%.1f)",
					ok, numQueries, tc.c, minOK, tc.p)
			}
		})
	}
}

// TestSearchBatchMatchesSearch: the fan-out worker pool must answer every
// query exactly like a sequential Search.
func TestSearchBatchMatchesSearch(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	data := randData(r, 300, 12)
	queries := randData(r, 17, 12)
	ix, err := Build(data, Options{Shards: 4, Index: promips.Options{Seed: 42, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	batch, batchSt, err := ix.SearchBatch(context.Background(), queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, st, err := ix.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], res) {
			t.Fatalf("query %d: batch result diverges from Search", i)
		}
		if batchSt[i] != st {
			t.Fatalf("query %d: batch stats diverge from Search", i)
		}
	}
}

// TestFilterSeesGlobalIDs: WithFilter predicates receive global ids, and
// the filtered result set honors them across the shard remap.
func TestFilterSeesGlobalIDs(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	data := randData(r, 200, 8)
	ix, err := Build(data, Options{Shards: 3, Index: promips.Options{Seed: 52, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := data[7]
	res, _, err := ix.Search(context.Background(), q, 10,
		promips.WithFilter(func(id uint32) bool { return id%2 == 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, r := range res {
		if r.ID%2 != 0 {
			t.Fatalf("filter leaked odd global id %d", r.ID)
		}
	}
}

// TestSaveOpenRoundTrip: Save persists every shard plus the manifest and
// Open restores a byte-identical answering state, journal replay included.
func TestSaveOpenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	data := randData(r, 120, 10)
	extra := randData(r, 6, 10)
	dir := t.TempDir()
	ix, err := Build(data, Options{Shards: 4, Dir: dir, Index: promips.Options{Seed: 62, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	// Post-Save updates live only in the journals: reopen must replay them.
	for _, v := range extra {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete(3)
	q := data[11]
	want, _, err := ix.Search(context.Background(), q, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantLive := ix.LiveCount()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if !IsSharded(dir) {
		t.Fatal("saved directory not detected as sharded")
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 4 {
		t.Fatalf("reopened with %d shards, want 4", re.Shards())
	}
	if got := re.LiveCount(); got != wantLive {
		t.Fatalf("reopened live count %d, want %d", got, wantLive)
	}
	if rec := re.Recovery(); rec.Replayed == 0 {
		t.Fatalf("journal replay recovered nothing; recovery=%+v", rec)
	}
	got, _, err := re.Search(context.Background(), q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ipBits(got), ipBits(want)) {
		t.Fatalf("reopened search diverges:\n got %v\nwant %v", got, want)
	}
}

// TestEmptyShardTolerated: deleting every point on one shard must not
// break fan-out; deleting every point everywhere is ErrEmptyIndex.
func TestEmptyShardTolerated(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	data := randData(r, 40, 8)
	ix, err := Build(data, Options{Shards: 2, Index: promips.Options{Seed: 72, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Shard 0 owns the even global ids.
	for id := 0; id < len(data); id += 2 {
		if ok := ix.Delete(uint32(id)); !ok {
			t.Fatalf("delete %d failed", id)
		}
	}
	res, _, err := ix.Search(context.Background(), data[1], 5)
	if err != nil {
		t.Fatalf("search with one empty shard: %v", err)
	}
	for _, r := range res {
		if r.ID%2 == 0 {
			t.Fatalf("deleted point %d resurfaced", r.ID)
		}
	}
	for id := 1; id < len(data); id += 2 {
		ix.Delete(uint32(id))
	}
	if _, _, err := ix.Search(context.Background(), data[1], 5); !errors.Is(err, promips.ErrEmptyIndex) {
		t.Fatalf("all-empty search: got %v, want ErrEmptyIndex", err)
	}
	if _, err := ix.Exact(context.Background(), data[1], 5); !errors.Is(err, promips.ErrEmptyIndex) {
		t.Fatalf("all-empty exact: got %v, want ErrEmptyIndex", err)
	}
}

// TestCompactRemapsGlobally: after Compact the remap relocates every
// surviving global id and search answers are unchanged.
func TestCompactRemapsGlobally(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	data := randData(r, 60, 8)
	ix, err := Build(data, Options{Shards: 3, Index: promips.Options{Seed: 82, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Uneven deletes so per-shard sizes diverge and global ids go sparse.
	for _, id := range []uint32{0, 3, 6, 9, 12, 1, 4} {
		if !ix.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	q := data[20]
	want, err := ix.Exact(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := ix.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != ix.LiveCount() {
		t.Fatalf("remap has %d entries, live count is %d", len(remap), ix.LiveCount())
	}
	got, err := ix.Exact(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Ids moved; the value sequence must not.
	for i := range want {
		if math.Float64bits(got[i].IP) != math.Float64bits(want[i].IP) {
			t.Fatalf("result %d: IP changed across compact: %v -> %v", i, want[i].IP, got[i].IP)
		}
		old, ok := remap[got[i].ID]
		if !ok {
			t.Fatalf("result id %d missing from remap", got[i].ID)
		}
		if old != want[i].ID {
			t.Fatalf("result %d: remap says old id %d, want %d", i, old, want[i].ID)
		}
	}
}

// TestBuildValidation: shard-count and data-size preconditions.
func TestBuildValidation(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	data := randData(r, 3, 4)
	if _, err := Build(data, Options{Shards: 8, Index: promips.Options{M: 2}}); err == nil {
		t.Fatal("3 points across 8 shards built without error")
	}
	if _, err := Build(data, Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := Build(data, Options{Shards: maxShards + 1}); err == nil {
		t.Fatal("oversized shard count accepted")
	}
}

// TestOpenErrors: a directory without a manifest is not a sharded index
// (fs.ErrNotExist class), and manifest garbage is ErrCorruptIndex.
func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open without manifest: got %v, want ErrNotExist", err)
	}
	if IsSharded(dir) {
		t.Fatal("empty dir detected as sharded")
	}
	for _, garbage := range []string{"", "junk\n", "PROMIPS-SHARDS v1\nshards 0\n", "PROMIPS-SHARDS v1\nshards 9999999\n", "PROMIPS-SHARDS v1\nshards two\n"} {
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, promips.ErrCorruptIndex) {
			t.Fatalf("manifest %q: got %v, want ErrCorruptIndex", garbage, err)
		}
		if IsSharded(dir) {
			t.Fatalf("manifest %q detected as sharded", garbage)
		}
	}
}

// FuzzParseManifest pins the manifest parser's trust boundary: arbitrary
// bytes must yield a valid (K, epoch) or ErrCorruptIndex — never a panic,
// never an out-of-range shard count, never a negative epoch.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte("PROMIPS-SHARDS v1\nshards 4\n"))
	f.Add([]byte("PROMIPS-SHARDS v1\nshards -1\n"))
	f.Add([]byte(""))
	f.Add([]byte("PROMIPS-SHARDS v1\nshards 99999999999999999999\n"))
	f.Add([]byte("PROMIPS-SHARDS v1\nshards 4\nepoch 3\n"))
	f.Add([]byte("PROMIPS-SHARDS v1\nshards 4\nepoch -3\n"))
	f.Add([]byte("PROMIPS-SHARDS v1\nshards 4\nepoch x\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		k, epoch, err := parseManifest(b)
		if err != nil {
			if !errors.Is(err, promips.ErrCorruptIndex) {
				t.Fatalf("non-taxonomy error: %v", err)
			}
			return
		}
		if k < 1 || k > maxShards {
			t.Fatalf("accepted out-of-range shard count %d", k)
		}
		if epoch < 0 {
			t.Fatalf("accepted negative epoch %d", epoch)
		}
	})
}
