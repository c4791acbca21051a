package promips

// Mixed read/write stress: searches stream concurrently with an insert
// stream that drives the whole update pipeline — delta freezes and
// automatic background compactions — and search latency must stay bounded
// throughout (snapshot reads mean an update never blocks a search; the p99
// assertion catches any regression back to lock-coupled behavior). Run under -race this also exercises every
// cross-goroutine edge of the pipeline: inserter vs compactor vs searchers.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func TestMixedWorkloadStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rand.New(rand.NewSource(77))
	const dim = 16
	data := randData(r, 200, dim)
	// A small freeze threshold makes the insert stream cross many
	// freeze boundaries.
	ix, err := Build(data, Options{
		Dir: t.TempDir(), Seed: 7, M: 4,
		SegmentEntries: 32,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer ix.Close()

	ac := ix.StartAutoCompact(1)
	defer ac.Stop()

	const (
		inserts   = 1500
		searchers = 4
		// updaters share the insert stream. With the searchers saturating
		// the CPUs, an updater back from its fsync waits a scheduling
		// quantum for a processor, so a lone sequential updater would take
		// a minute; concurrent ones share each group fsync and its wait.
		updaters = 32
	)
	queries := randData(r, 32, dim)

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		searchErr atomic.Pointer[error]
	)
	latMu := sync.Mutex{}
	latencies := make([]time.Duration, 0, 4096)

	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(int64(1000 + w)))
			local := make([]time.Duration, 0, 1024)
			for !stop.Load() {
				q := queries[qr.Intn(len(queries))]
				start := time.Now()
				_, _, err := ix.Search(context.Background(), q, 10)
				el := time.Since(start)
				if err != nil {
					searchErr.CompareAndSwap(nil, &err)
					return
				}
				local = append(local, el)
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(w)
	}

	ir := rand.New(rand.NewSource(9))
	points := randData(ir, inserts, dim)
	var (
		uwg       sync.WaitGroup
		insertErr atomic.Pointer[error]
	)
	for u := 0; u < updaters; u++ {
		uwg.Add(1)
		go func(u int) {
			defer uwg.Done()
			for i := u; i < inserts; i += updaters {
				if _, err := ix.Insert(points[i]); err != nil {
					insertErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(u)
	}
	uwg.Wait()
	if ep := insertErr.Load(); ep != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("insert: %v", *ep)
	}
	// Let the pipeline drain a little so at least one background
	// compaction observes the frozen segments.
	deadline := time.Now().Add(5 * time.Second)
	for ac.Runs() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if ep := searchErr.Load(); ep != nil {
		t.Fatalf("search during insert stream: %v", *ep)
	}
	if len(latencies) == 0 {
		t.Fatal("no searches completed during the insert stream")
	}
	p50 := percentile(latencies, 0.50)
	p99 := percentile(latencies, 0.99)
	t.Logf("mixed workload: %d searches, p50=%v p99=%v", len(latencies), p50, p99)
	// The bound is deliberately loose for CI noise (and the -race
	// slowdown): what it excludes is searches serializing behind a freeze
	// or a compaction fold — those would push p99 into whole-rebuild
	// territory (hundreds of ms to seconds on this size).
	if p99 > time.Second {
		t.Fatalf("mixed-workload search p99 %v: searches are being blocked by updates", p99)
	}

	us := ix.UpdateStats()
	if us.Freezes == 0 {
		t.Fatalf("insert stream crossed no freeze boundary: %+v", us)
	}
	if ac.Runs() == 0 {
		t.Fatalf("auto-compactor never ran (failures=%d, stats %+v)", ac.Failures(), us)
	}
	if ac.Failures() != 0 {
		t.Fatalf("auto-compactor recorded %d failures", ac.Failures())
	}

	// Nothing lost: every insert acknowledged above is live (compaction
	// remaps ids but never drops a live point).
	if want := len(data) + inserts; ix.LiveCount() != want {
		t.Fatalf("live count %d after stream, want %d", ix.LiveCount(), want)
	}
	// And the state round-trips: Save folds whatever the pipeline still
	// holds, and a fresh Open answers with the same live set.
	ac.Stop()
	if err := ix.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	dir := ix.Dir()
	if err := ix.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if want := len(data) + inserts; re.LiveCount() != want {
		t.Fatalf("reopened live count %d, want %d", re.LiveCount(), want)
	}
	if rec := re.Recovery(); rec.Replayed != 0 {
		t.Fatalf("replay after Save replayed %d records", rec.Replayed)
	}
}
