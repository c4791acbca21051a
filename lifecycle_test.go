package promips

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promips/internal/leaktest"
)

// TestLifecycleRoundTrip drives the full durable lifecycle through the
// public API: Build → Insert/Delete → Save → Close → Open, and demands the
// reopened index answer exactly as the saved one did — results AND stats,
// because Save persists the insert delta and tombstones, not just the
// build-time state.
func TestLifecycleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	data := randData(r, 900, 12)
	dir := t.TempDir()
	ix, err := Build(data, Options{Dir: dir, Seed: 202, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := randData(r, 1, 12)[0]
	insID, err := ix.Insert(scale(q, 15))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(7) {
		t.Fatal("delete of id 7 failed")
	}
	wantLive := ix.LiveCount()
	wantRes, wantStats, err := ix.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes[0].ID != insID {
		t.Fatalf("dominant delta point not ranked first: got %d", wantRes[0].ID)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.LiveCount() != wantLive {
		t.Fatalf("LiveCount after reopen = %d, want %d", re.LiveCount(), wantLive)
	}
	gotRes, gotStats, err := re.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("results changed across Save/Open:\n got %v\nwant %v", gotRes, wantRes)
	}
	if gotStats != wantStats {
		t.Fatalf("stats changed across Save/Open:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	for _, res := range gotRes {
		if res.ID == 7 {
			t.Fatal("tombstone lost across Save/Open: deleted id returned")
		}
	}
}

// Satellite regression: Close used to remove an owned temp directory even
// after the caller persisted the index into it with Save.
func TestCloseAfterSaveKeepsOwnedTempDir(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	data := randData(r, 150, 8)
	ix, err := Build(data, Options{Seed: 204, M: 4}) // no Dir: owned temp dir
	if err != nil {
		t.Fatal(err)
	}
	dir := ix.Dir()
	defer os.RemoveAll(dir)
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("Close removed the directory the caller just Saved to: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("saved temp dir does not reopen: %v", err)
	}
	re.Close()
}

// Satellite regression: Insert with mismatched dimensionality must surface
// the typed sentinel, not a bare formatted error.
func TestInsertDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(205))
	ix, err := Build(randData(r, 100, 8), Options{Dir: t.TempDir(), Seed: 206, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Insert(make([]float32, 5)); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Insert with dim 5 into dim-8 index returned %v, want ErrDimMismatch", err)
	}
	if _, _, err := ix.Search(context.Background(), make([]float32, 3), 1); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Search with dim 3 returned %v, want ErrDimMismatch", err)
	}
	// Non-finite components are refused at the same boundary.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := make([]float32, 8)
		v[5] = float32(bad)
		if _, err := ix.Insert(v); err == nil {
			t.Fatalf("Insert with a %v component succeeded", bad)
		}
		if _, _, err := ix.Search(context.Background(), v, 1); err == nil {
			t.Fatalf("Search with a %v component succeeded", bad)
		}
	}
}

// TestCompactPublic exercises the generation-directory protocol end to end:
// compact swaps a gen-NNNNNN subdirectory in, retires the old generation's
// files, keeps answering identically, and the directory reopens onto the
// new generation.
func TestCompactPublic(t *testing.T) {
	r := rand.New(rand.NewSource(207))
	data := randData(r, 600, 10)
	dir := t.TempDir()
	ix, err := Build(data, Options{Dir: dir, Seed: 208, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randData(r, 1, 10)[0]
	insID, err := ix.Insert(scale(q, 20))
	if err != nil {
		t.Fatal(err)
	}
	ix.Delete(3)
	ix.Delete(11)
	before, err := ix.Exact(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}

	remap, err := ix.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != 599 { // 600 − 2 deleted + 1 inserted
		t.Fatalf("remap has %d entries, want 599", len(remap))
	}
	if ix.Len() != 599 || ix.LiveCount() != 599 {
		t.Fatalf("Len=%d LiveCount=%d after compact", ix.Len(), ix.LiveCount())
	}
	after, err := ix.Exact(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if before[0].IP != after[0].IP {
		t.Fatalf("top IP changed across compaction: %v vs %v", before[0].IP, after[0].IP)
	}
	if remap[after[0].ID] != insID {
		t.Fatalf("remap broken: new %d -> old %d, want %d", after[0].ID, remap[after[0].ID], insID)
	}

	// Directory protocol: gen-000001 active, root page files retired.
	if _, err := os.Stat(filepath.Join(dir, "gen-000001", "orig.data")); err != nil {
		t.Fatalf("generation directory missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "orig.data")); !os.IsNotExist(err) {
		t.Fatalf("old generation's root files not retired: %v", err)
	}

	// The swap was made durable: the directory reopens onto gen-000001.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reRes, err := re.Exact(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if !reflect.DeepEqual(reRes, after) {
		t.Fatal("reopened index answers differently from the compacted one")
	}

	// A second compaction moves to gen-000002 and removes gen-000001.
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002", "orig.data")); err != nil {
		t.Fatalf("second generation missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001")); !os.IsNotExist(err) {
		t.Fatalf("first generation not retired: %v", err)
	}
}

// TestCompactUnderConcurrentReaders is the race test of the issue: readers
// and writers keep hitting the index while Compact rebuilds and swaps
// generations underneath them. Run with -race this exercises the
// snapshot/rebuild/swap locking; every search must succeed against
// whichever generation it lands on.
func TestCompactUnderConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(209))
	n := 1200
	if testing.Short() {
		n = 400
	}
	data := randData(r, n, 12)
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 210, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	queries := randData(r, 8, 12)
	inserts := randData(r, 40, 12)

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := ix.Search(context.Background(), queries[(i+g)%len(queries)], 5)
				if err != nil {
					errs <- err
					return
				}
				if len(res) != 5 {
					errs <- errTooFew
					return
				}
			}
		}(g)
	}
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for _, v := range inserts {
			if _, err := ix.Insert(v); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Two compactions while the readers and writer run.
	for i := 0; i < 2; i++ {
		if _, err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got, want := ix.LiveCount(), n+len(inserts); got != want {
		t.Fatalf("LiveCount after concurrent compactions = %d, want %d", got, want)
	}
	// A final quiescent compaction folds everything; nothing may be lost.
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Len(), n+len(inserts); got != want {
		t.Fatalf("Len after final compaction = %d, want %d", got, want)
	}
}

// TestSearchBatchCancellation cancels a batch from inside its first query
// and demands context.Canceled back with every worker drained (no goroutine
// leak).
func TestSearchBatchCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rand.New(rand.NewSource(211))
	data := randData(r, 800, 12)
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 212, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	queries := make([][]float32, 64)
	for i := range queries {
		queries[i] = data[i%len(data)]
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	// The filter runs once per candidate inside the first queries' scans:
	// cancelling from it guarantees the batch is genuinely mid-flight.
	_, _, err = ix.SearchBatch(ctx, queries, 5, WithFilter(func(id uint32) bool {
		if fired.CompareAndSwap(false, true) {
			cancel()
		}
		return true
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}

	// Workers must drain: wait for the goroutine count to settle back.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked after cancelled batch: %d > %d", got, before)
	}

	// The index stays fully usable afterwards.
	if _, _, err := ix.Search(context.Background(), queries[0], 5); err != nil {
		t.Fatal(err)
	}
}

// TestErrClosed checks the ErrClosed taxonomy across the API surface.
func TestErrClosed(t *testing.T) {
	r := rand.New(rand.NewSource(213))
	ix, err := Build(randData(r, 100, 8), Options{Dir: t.TempDir(), Seed: 214, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := randData(r, 1, 8)[0]
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, _, err := ix.Search(context.Background(), q, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search after Close returned %v, want ErrClosed", err)
	}
	if _, err := ix.Insert(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close returned %v, want ErrClosed", err)
	}
	if ix.Delete(0) {
		t.Fatal("Delete after Close reported success")
	}
	if err := ix.Save(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close returned %v, want ErrClosed", err)
	}
	if _, err := ix.Compact(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close returned %v, want ErrClosed", err)
	}
	if _, err := ix.Exact(context.Background(), q, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exact after Close returned %v, want ErrClosed", err)
	}
}

// TestOpenCorrupt checks that unreadable on-disk state surfaces as
// ErrCorruptIndex rather than a decoding panic or an anonymous error.
func TestOpenCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(215))
	dir := t.TempDir()
	ix, err := Build(randData(r, 100, 8), Options{Dir: dir, Seed: 216, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	ix.Close()

	if err := os.WriteFile(filepath.Join(dir, "promips.meta"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("Open over garbage meta returned %v, want ErrCorruptIndex", err)
	}

	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("../evil"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("Open with a traversal CURRENT returned %v, want ErrCorruptIndex", err)
	}

	// CURRENT naming a generation whose files are gone is corruption too.
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("gen-000042\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("Open with CURRENT naming a missing generation returned %v, want ErrCorruptIndex", err)
	}
}

// Exact must reject non-positive k instead of indexing results[-1].
func TestExactNonPositiveK(t *testing.T) {
	r := rand.New(rand.NewSource(219))
	ix, err := Build(randData(r, 50, 6), Options{Dir: t.TempDir(), Seed: 220, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randData(r, 1, 6)[0]
	for _, k := range []int{0, -3} {
		if _, err := ix.Exact(context.Background(), q, k); err == nil {
			t.Fatalf("Exact with k=%d must error", k)
		}
	}
}

// TestWithFilter checks predicate-constrained search: filtered ids never
// surface, from the disk-resident index or from the delta.
func TestWithFilter(t *testing.T) {
	r := rand.New(rand.NewSource(217))
	data := randData(r, 500, 10)
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 218, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randData(r, 1, 10)[0]
	deltaID, err := ix.Insert(scale(q, 25)) // dominant, but filtered below
	if err != nil {
		t.Fatal(err)
	}

	unfiltered, _, err := ix.Search(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if unfiltered[0].ID != deltaID {
		t.Fatalf("dominant delta point not first unfiltered: %d", unfiltered[0].ID)
	}
	banned := map[uint32]bool{deltaID: true, unfiltered[1].ID: true}
	res, _, err := ix.Search(context.Background(), q, 3,
		WithFilter(func(id uint32) bool { return !banned[id] }))
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res {
		if banned[rr.ID] {
			t.Fatalf("filtered id %d surfaced in results", rr.ID)
		}
	}
	if len(res) != 3 {
		t.Fatalf("filtered search returned %d results, want 3", len(res))
	}
}

func scale(v []float32, s float32) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = x * s
	}
	return out
}

// NaN must not slip through the (c, p) validation: every NaN comparison is
// false, and a NaN threshold would reach idistance's float→int64 ring
// conversion, whose result is undefined.
func TestNaNOptionRejected(t *testing.T) {
	r := rand.New(rand.NewSource(221))
	ix, err := Build(randData(r, 80, 6), Options{Dir: t.TempDir(), Seed: 222, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := randData(r, 1, 6)[0]
	if _, _, err := ix.Search(context.Background(), q, 3, WithC(math.NaN())); err == nil {
		t.Fatal("WithC(NaN) must fail the query")
	}
	if _, _, err := ix.Search(context.Background(), q, 3, WithP(math.NaN())); err == nil {
		t.Fatal("WithP(NaN) must fail the query")
	}
}

// Exact on a fully-deleted index must surface ErrEmptyIndex like Search
// does, not hand back an empty slice the caller may index into.
func TestExactEmptyIndex(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	ix, err := Build(randData(r, 10, 6), Options{Dir: t.TempDir(), Seed: 224, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for id := uint32(0); id < 10; id++ {
		ix.Delete(id)
	}
	if _, err := ix.Exact(context.Background(), randData(r, 1, 6)[0], 3); !errors.Is(err, ErrEmptyIndex) {
		t.Fatalf("Exact on fully-deleted index returned %v, want ErrEmptyIndex", err)
	}
}

// Open must garbage-collect generations a crash orphaned: anything CURRENT
// does not name — superseded root files, stale or partial gen directories —
// is unreferenced forever otherwise.
func TestOpenSweepsStaleGenerations(t *testing.T) {
	r := rand.New(rand.NewSource(225))
	dir := t.TempDir()
	ix, err := Build(randData(r, 120, 8), Options{Dir: dir, Seed: 226, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: superseded root files and a partial
	// generation directory that the crashed process never removed.
	for _, name := range []string{"idist.data", "orig.data", "promips.meta"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "gen-000099"), 0o755); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(filepath.Join(dir, "orig.data")); !os.IsNotExist(err) {
		t.Fatalf("stale root files not swept: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000099")); !os.IsNotExist(err) {
		t.Fatalf("stale generation directory not swept: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001", "orig.data")); err != nil {
		t.Fatalf("active generation must survive the sweep: %v", err)
	}
	if _, _, err := re.Search(context.Background(), randData(r, 1, 8)[0], 3); err != nil {
		t.Fatal(err)
	}
}

// TestOpenIndexOwnsNoGoroutine: an index is passive between calls. Build's
// workers have exited when it returns, and freezing the delta — here twice —
// starts nothing in the background, so while the index is still open the
// process runs no more goroutines than before it existed.
func TestOpenIndexOwnsNoGoroutine(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	data, points := randData(r, 60, 6), randData(r, 9, 6)
	before := runtime.NumGoroutine()
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 92, M: 4, SegmentEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, v := range points {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if us := ix.UpdateStats(); us.Freezes != 2 {
		t.Fatalf("inserts crossed %d freezes, want 2: %+v", us.Freezes, us)
	}
	leaktest.SettleGoroutines(t, before)
}
