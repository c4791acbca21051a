package pager

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// TestShardScaling pins the stripe-count policy: tiny pools stay single
// shard (so their capacity is not fragmented), big pools stripe out.
func TestShardScaling(t *testing.T) {
	for _, tc := range []struct {
		pool, wantShards int
	}{
		{1, 1}, {8, 1}, {32, 1}, {64, 2}, {256, 8}, {1024, 16}, {65536, 16},
	} {
		p := newTestPager(t, Options{PageSize: 64, PoolSize: tc.pool}, 1)
		if got := p.Shards(); got != tc.wantShards {
			t.Errorf("PoolSize=%d: %d shards, want %d", tc.pool, got, tc.wantShards)
		}
	}
}

// TestClockSecondChance verifies the CLOCK policy actually grants second
// chances: with a pool of 2 and the access pattern A B A C, page A's
// reference bit must save it, so C evicts B and a re-read of A still hits.
func TestClockSecondChance(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 2}, 3)
	readOK := func(id int64) {
		t.Helper()
		got, err := readCopy(p, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(id) {
			t.Fatalf("page %d corrupted", id)
		}
	}
	readOK(0) // miss: pool {0}
	readOK(1) // miss: pool {0,1}
	readOK(0) // hit: sets 0's reference bit
	before := p.Stats()
	readOK(2) // miss: CLOCK clears 0's bit, evicts 1
	readOK(0) // must still be a hit — 1 was the victim
	d := p.Stats().Sub(before)
	if d.Misses != 1 || d.Hits != 1 {
		t.Fatalf("after A B A C A: interval misses=%d hits=%d, want 1/1", d.Misses, d.Hits)
	}
	if d.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", d.Evictions)
	}
	// And 1 is gone: reading it now misses.
	before = p.Stats()
	readOK(1)
	if p.Stats().Sub(before).Misses != 1 {
		t.Fatal("victim page still pooled")
	}
}

// TestReadRunBasics covers the readahead entry point: full-miss runs,
// full-hit runs, mixed runs with cached holes, shard-block-crossing runs,
// and the error cases.
func TestReadRunBasics(t *testing.T) {
	const n = 64
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 1024}, n)

	check := func(pages [][]byte, first int64) {
		t.Helper()
		for i, page := range pages {
			if len(page) != 64 || page[0] != byte(first+int64(i)) {
				t.Fatalf("run page %d (id %d) corrupted", i, first+int64(i))
			}
		}
	}

	// Cold run spanning several shard blocks.
	var io IOStats
	pages, err := runCopy(p, 3, 20, &io)
	if err != nil {
		t.Fatal(err)
	}
	check(pages, 3)
	if io.Reads != 20 || io.Pages() != 20 {
		t.Fatalf("io: Reads=%d Pages=%d, want 20/20", io.Reads, io.Pages())
	}
	s := p.Stats()
	if s.Misses != 20 || s.Hits != 0 {
		t.Fatalf("cold run: misses=%d hits=%d, want 20/0", s.Misses, s.Hits)
	}

	// The same run again: all hits.
	before := p.Stats()
	pages, err = runCopy(p, 3, 20, &io)
	if err != nil {
		t.Fatal(err)
	}
	check(pages, 3)
	d := p.Stats().Sub(before)
	if d.Hits != 20 || d.Misses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 20/0", d.Hits, d.Misses)
	}

	// A run overlapping the cached range: holes are fetched, cached pages
	// served from the pool.
	before = p.Stats()
	pages, err = runCopy(p, 0, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(pages, 0)
	d = p.Stats().Sub(before)
	if d.Misses != 10 || d.Hits != 20 {
		t.Fatalf("mixed run: misses=%d hits=%d, want 10/20", d.Misses, d.Hits)
	}

	// Bounds.
	if _, err := p.ReadRun(-1, 2, nil, nil); err == nil {
		t.Fatal("expected error for negative first page")
	}
	if _, err := p.ReadRun(n-1, 2, nil, nil); err == nil {
		t.Fatal("expected error for run past the end")
	}
	if out, err := p.ReadRun(5, 0, nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v, %d pages", err, len(out))
	}
}

// TestReadRunSeesWrites: a page the Writer wrote twice (as the iDistance ring
// writer re-flushes the page the next ring continues on) reads back with its
// last content, cold and from the pool.
func TestReadRunSeesWrites(t *testing.T) {
	stale, fresh := bytes.Repeat([]byte{0x11}, 64), bytes.Repeat([]byte{0xEE}, 64)
	w := writeFile(t, filepath.Join(t.TempDir(), "pages.db"), 64, [][]byte{stale, stale, stale}, nil)
	if err := w.Write(1, fresh); err != nil {
		t.Fatal(err)
	}
	p, err := w.Finish(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for pass := 0; pass < 2; pass++ {
		pages, err := runCopy(p, 0, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pages[0], stale) || !bytes.Equal(pages[1], fresh) || !bytes.Equal(pages[2], stale) {
			t.Fatalf("pass %d: ReadRun did not return the last write of each page", pass)
		}
	}
}

// TestReadRunAgainstRandomReads cross-checks ReadRun against single-page
// Reads under random interleaving and a small pool (constant eviction).
func TestReadRunAgainstRandomReads(t *testing.T) {
	const n = 40
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 4}, n)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		if rng.Intn(2) == 0 {
			first := int64(rng.Intn(n - 1))
			length := 1 + rng.Intn(int(int64(n)-first))
			pages, err := runCopy(p, first, length, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, page := range pages {
				if page[0] != byte(first+int64(i)) {
					t.Fatalf("trial %d: run page id %d corrupted", trial, first+int64(i))
				}
			}
		} else {
			id := int64(rng.Intn(n))
			page, err := readCopy(p, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if page[0] != byte(id) {
				t.Fatalf("trial %d: page %d corrupted", trial, id)
			}
		}
	}
}

// TestOneShardStress hammers a pool smaller than its file — one stripe, so
// every install, hit and eviction contends on the same lock — from many
// goroutines mixing Read, ReadRun and ReadDirect, and checks every byte
// returned against the model the file was written from. The Read and ReadRun
// goroutines are also holders: they keep up to two pinned runs across later
// iterations, while the others churn the pool, and check each run's bytes
// against the model again just before releasing it — a frame recycled under
// a pin shows there. With more pins than frames, installs regularly meet an
// all-pinned stripe and fall back to unpooled frames. -race covers the
// memory model; the content checks cover a miss path installing or returning
// the wrong page and an eviction that ignores a pin.
func TestOneShardStress(t *testing.T) {
	const pageSize, numPages = 64, 40
	model := randomPages(rand.New(rand.NewSource(9)), numPages, pageSize)
	p, err := writeFile(t, filepath.Join(t.TempDir(), "pages.db"), pageSize, model, nil).Finish(Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() != 1 {
		t.Fatalf("want a single shard for the stress, got %d", p.Shards())
	}

	type held struct {
		first int
		run   []Page
	}
	matches := func(h held) error {
		for j, pg := range h.run {
			if !bytes.Equal(pg.Bytes(), model[h.first+j]) {
				return fmt.Errorf("page %d differs from the model", h.first+j)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var io IOStats
			var reads int64
			direct := make([]byte, 5*pageSize)
			var holding []held
			defer func() {
				for _, h := range holding {
					ReleaseAll(h.run)
				}
			}()
			for i := 0; i < 1500; i++ {
				first := rng.Intn(numPages)
				n := 1 + rng.Intn(min(5, numPages-first))
				h := held{first: first}
				var err error
				switch g % 3 {
				case 0:
					n = 1
					var pg Page
					pg, err = p.Read(int64(first), &io)
					h.run = []Page{pg}
				case 1:
					h.run, err = p.ReadRun(int64(first), n, nil, &io)
				default:
					err = p.ReadDirect(int64(first), direct[:n*pageSize], &io)
					for j := 0; err == nil && j < n; j++ {
						if !bytes.Equal(direct[j*pageSize:(j+1)*pageSize], model[first+j]) {
							err = fmt.Errorf("direct page %d differs from the model", first+j)
						}
					}
				}
				if err == nil && h.run != nil {
					holding = append(holding, h)
					err = matches(h)
				}
				for err == nil && len(holding) > 0 && (len(holding) > 2 || rng.Intn(2) == 0) {
					if err = matches(holding[0]); err == nil {
						ReleaseAll(holding[0].run)
						holding = holding[1:]
					}
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, iteration %d: %w", g, i, err)
					return
				}
				reads += int64(n)
			}
			if io.Reads != reads {
				errs <- fmt.Errorf("goroutine %d: IOStats counted %d reads, issued %d", g, io.Reads, reads)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress failure: %v", err)
	}
	if s := p.Stats(); s.Hits+s.Misses != s.Accesses || s.Evictions == 0 {
		t.Fatalf("shared counters after the stress: %+v", s)
	}
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins held after every holder released", n)
	}
}

// TestPinBlocksEviction: a held page keeps its frame and its pool slot
// through any amount of churn, and becomes an ordinary CLOCK victim once
// released.
func TestPinBlocksEviction(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 2}, 12)
	held, err := p.Read(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id < 12; id++ {
		if _, err := readCopy(p, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := held.Bytes()[0]; got != 0 {
		t.Fatalf("held page 0 now reads as page %d", got)
	}
	if p.Pinned() != 1 {
		t.Fatalf("Pinned = %d with one page held", p.Pinned())
	}
	before := p.Stats()
	if _, err := readCopy(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Sub(before).Hits != 1 {
		t.Fatal("the held page left the pool")
	}
	held.Release()
	held.Release() // the handle is spent: a second Release does nothing
	if held.Bytes() != nil || p.Pinned() != 0 {
		t.Fatalf("after Release: bytes %v, Pinned %d", held.Bytes(), p.Pinned())
	}
	for id := int64(1); id < 12; id++ {
		if _, err := readCopy(p, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	before = p.Stats()
	if _, err := readCopy(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Sub(before).Misses != 1 {
		t.Fatal("the released page was never evicted")
	}
}

// TestPinAllPinnedFallsBack: when every entry of a stripe is pinned, a miss
// neither blocks nor evicts — it returns the right bytes in an unpooled frame.
func TestPinAllPinnedFallsBack(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 2}, 8)
	run, err := p.ReadRun(0, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	extra, err := p.ReadRun(2, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range extra {
		if pg.Bytes()[0] != byte(2+i) {
			t.Fatalf("unpooled page %d reads as page %d", 2+i, pg.Bytes()[0])
		}
	}
	if d := p.Stats().Sub(before); d.Evictions != 0 || d.Misses != 3 {
		t.Fatalf("misses over an all-pinned pool recorded %+v", d)
	}
	if p.Pinned() != 2 {
		t.Fatalf("Pinned = %d, want the 2 pooled pins", p.Pinned())
	}
	ReleaseAll(extra)
	ReleaseAll(run)
	if _, err := readCopy(p, 3, nil); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("after the release a miss should evict; stats %+v", p.Stats())
	}
}

// TestMissRecyclesFrames: once the pool is full, a miss reads into the
// frame of the page CLOCK evicted — Read and ReadRun allocate nothing,
// however often the pool turns over.
func TestMissRecyclesFrames(t *testing.T) {
	const n = 64
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 8}, n)
	var run []Page
	id := int64(0)
	cycle := func() {
		pg, err := p.Read(id%n, nil)
		if err != nil || pg.Bytes()[0] != byte(id%n) {
			t.Fatalf("page %d: %v", id%n, err)
		}
		pg.Release()
		if run, err = p.ReadRun((id*5)%(n-4), 4, run[:0], nil); err != nil {
			t.Fatal(err)
		}
		ReleaseAll(run)
		id += 3
	}
	for i := 0; i < 2*n; i++ {
		cycle()
	}
	before := p.Stats()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("%.1f allocations per Read + ReadRun cycle, want 0", allocs)
	}
	if d := p.Stats().Sub(before); d.Misses == 0 || d.Evictions == 0 {
		t.Fatalf("the cycle never missed: %+v", d)
	}
}
