package promips

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// buildShared builds one index for the concurrency tests: big enough that
// queries do real multi-page I/O, small enough for -race runs.
func buildShared(t *testing.T, n int) (*Index, [][]float32) {
	t.Helper()
	if testing.Short() {
		n /= 2
	}
	r := rand.New(rand.NewSource(41))
	data := randData(r, n, 16)
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 42, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	queries := make([][]float32, 20)
	for i := range queries {
		queries[i] = data[r.Intn(len(data))]
	}
	return ix, queries
}

// TestConcurrentSearchMatchesSequential is the stress test of the issue: N
// goroutines each run the full query workload against one shared Index and
// must reproduce the sequential baseline exactly — results AND per-query
// stats, PageAccesses included. Run with -race this also exercises the
// pager's shared-lock hit path and the index read lock.
func TestConcurrentSearchMatchesSequential(t *testing.T) {
	ix, queries := buildShared(t, 1500)
	const k = 10

	baseRes := make([][]Result, len(queries))
	baseStats := make([]SearchStats, len(queries))
	for i, q := range queries {
		res, st, err := ix.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		baseRes[i], baseStats[i] = res, st
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				// Each goroutine starts at a different offset so distinct
				// queries overlap in time.
				for off := 0; off < len(queries); off++ {
					i := (off + g*3) % len(queries)
					res, st, err := ix.Search(context.Background(), queries[i], k)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !reflect.DeepEqual(res, baseRes[i]) {
						errs <- "concurrent results differ from sequential baseline"
						return
					}
					if st.PageAccesses != baseStats[i].PageAccesses {
						errs <- "per-query page accounting drifted under concurrency"
						return
					}
					if st != baseStats[i] {
						errs <- "concurrent stats differ from sequential baseline"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSearchBatchMatchesSequential is the acceptance criterion: SearchBatch
// on 1, 2, 4 and 8 workers (its pool is GOMAXPROCS-sized) returns
// byte-identical results to sequential Search, with correct per-query stats
// at every position.
func TestSearchBatchMatchesSequential(t *testing.T) {
	ix, queries := buildShared(t, 1500)
	const k = 10

	wantRes := make([][]Result, len(queries))
	wantStats := make([]SearchStats, len(queries))
	for i, q := range queries {
		res, st, err := ix.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		wantRes[i], wantStats[i] = res, st
	}

	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		gotRes, gotStats, err := ix.SearchBatch(context.Background(), queries, k)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("GOMAXPROCS=%d: SearchBatch results differ from sequential Search", procs)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("GOMAXPROCS=%d: SearchBatch stats differ from sequential Search", procs)
		}
	}
}

// TestSearchBatchFilterConcurrent pins WithFilter's documented concurrency
// contract: the predicate is called concurrently from every SearchBatch
// worker, and the filtered batch must reproduce the sequential filtered
// baseline exactly. Run under -race (CI does) this catches any unsynchronized
// state the filter path might grow.
func TestSearchBatchFilterConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ix, queries := buildShared(t, 1500)
	const k = 10
	filter := func(id uint32) bool { return id%3 != 0 }

	wantRes := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := ix.Search(context.Background(), q, k, WithFilter(filter))
		if err != nil {
			t.Fatal(err)
		}
		wantRes[i] = res
	}

	gotRes, _, err := ix.SearchBatch(context.Background(), queries, k, WithFilter(filter))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("filtered SearchBatch differs from sequential filtered Search")
	}
	for i, res := range gotRes {
		for _, r := range res {
			if r.ID%3 == 0 {
				t.Fatalf("query %d returned filtered-out id %d", i, r.ID)
			}
		}
	}
}

func TestSearchBatchPropagatesError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, queries := buildShared(t, 400)
	bad := make([][]float32, len(queries))
	copy(bad, queries)
	bad[len(bad)/2] = []float32{1, 2, 3} // wrong dimensionality
	if _, _, err := ix.SearchBatch(context.Background(), bad, 5); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("batch with a mis-dimensioned query returned %v, want ErrDimMismatch", err)
	}
	if res, _, err := ix.SearchBatch(context.Background(), nil, 5); err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestConcurrentSearchWithUpdates interleaves writers (Insert/Delete) with
// searching readers on one shared Index. Results vary with timing, so the
// test asserts validity, not equality: every returned id must be live at
// some point, k results come back, and nothing races or panics.
func TestConcurrentSearchWithUpdates(t *testing.T) {
	ix, queries := buildShared(t, 1000)
	const k = 5
	r := rand.New(rand.NewSource(77))
	inserts := randData(r, 64, 16)

	baseLive := ix.LiveCount()
	errs := make(chan error, 12)
	stop := make(chan struct{})

	// Writers: insert fresh points, then tombstone every fourth one.
	var writers sync.WaitGroup
	deleted := 0
	for i := range inserts {
		if i%4 == 0 {
			deleted++
		}
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(inserts); i += 2 {
				id, err := ix.Insert(inserts[i])
				if err != nil {
					errs <- err
					return
				}
				if i%4 == 0 {
					ix.Delete(id)
				}
			}
		}(w)
	}
	// Readers: hammer searches until the writers are done.
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
				res, _, err := ix.Search(context.Background(), queries[(i+g)%len(queries)], k)
				if err != nil {
					errs <- err
					return
				}
				if len(res) != k {
					errs <- errTooFew
					return
				}
			}
		}(g)
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := ix.LiveCount(), baseLive+len(inserts)-deleted; got != want {
		t.Fatalf("LiveCount after updates = %d, want %d", got, want)
	}
}

var errTooFew = errTooFewType{}

type errTooFewType struct{}

func (errTooFewType) Error() string { return "search returned fewer than k results" }
