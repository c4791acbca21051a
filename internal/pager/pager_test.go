package pager

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// writeFile creates the page file at path and writes pages[i] as page i, in
// the given order of ids (every id once when order is nil; an id may repeat,
// the last write winning, or be absent, leaving the page unwritten).
func writeFile(t testing.TB, path string, pageSize int, pages [][]byte, order []int) *Writer {
	t.Helper()
	w, err := Create(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	for range pages {
		w.Alloc()
	}
	if order == nil {
		order = rand.New(rand.NewSource(int64(len(pages)))).Perm(len(pages))
	}
	for _, id := range order {
		if err := w.Write(int64(id), pages[id]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// randomPages returns n pages of random bytes.
func randomPages(r *rand.Rand, n, pageSize int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, pageSize)
		r.Read(pages[i])
	}
	return pages
}

// readCopy reads page id and returns a copy of its bytes.
func readCopy(p *Pager, id int64, io *IOStats) ([]byte, error) {
	pages, _, err := p.Read(id, 1, nil, nil, io)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(pages[0]), nil
}

// runCopy reads the n pages from first on and returns a copy of each.
func runCopy(p *Pager, first int64, n int, io *IOStats) ([][]byte, error) {
	pages, _, err := p.Read(first, n, nil, nil, io)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i, pg := range pages {
		out[i] = bytes.Clone(pg)
	}
	return out, nil
}

// newTestPager returns a Pager over a finished file of n pages, each stamped
// with its id in byte 0: resident when n is at most opts.PoolSize.
func newTestPager(t testing.TB, opts Options, n int) *Pager {
	t.Helper()
	opts.normalize()
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, opts.PageSize)
		pages[i][0] = byte(i)
	}
	p, err := writeFile(t, filepath.Join(t.TempDir(), "pages.db"), opts.PageSize, pages, nil).Finish(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestAllocReadWriteRoundTrip: pages written in a random order read back
// from a file read from disk, and the Writer's deferred Close after Finish
// leaves the Pager's descriptor alone.
func TestAllocReadWriteRoundTrip(t *testing.T) {
	pages := randomPages(rand.New(rand.NewSource(1)), 9, 128)
	w := writeFile(t, filepath.Join(t.TempDir(), "pages.db"), 128, pages, nil)
	p, err := w.Finish(Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("Close after Finish: %v", err)
	}
	if p.PageSize() != 128 || p.NumPages() != 9 {
		t.Fatalf("file of %d pages of %d bytes, want 9 of 128", p.NumPages(), p.PageSize())
	}
	for id, want := range pages {
		got, err := readCopy(p, int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d read back different data", id)
		}
	}
}

// TestAllocReturnsZeroedPage: an allocated page that is never written — the
// last one included — reads as zeros, and the finished file is n pages long.
func TestAllocReturnsZeroedPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	pages := randomPages(rand.New(rand.NewSource(2)), 6, 64)
	p, err := writeFile(t, path, 64, pages, []int{4, 0, 2}).Finish(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 6*64 {
		t.Fatalf("file length %d (%v), want %d", fi.Size(), err, 6*64)
	}
	for id := range pages {
		want := make([]byte, 64)
		if id == 0 || id == 2 || id == 4 {
			want = pages[id]
		}
		got, err := readCopy(p, int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: unexpected content", id)
		}
	}
}

// TestFinishFailureClosesFile: when Finish cannot make the file durable it
// returns the error and closes the descriptor. The pager has no filesystem
// seam to fail an fsync through, so the failure is provoked with a read-only
// descriptor, which fails the truncate that shares fsync's error path.
func TestFinishFailureClosesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	w := writeFile(t, path, 64, randomPages(rand.New(rand.NewSource(3)), 3, 64), nil)
	w.f.Close()
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.f = ro
	w.Alloc() // the file must grow, so the truncate cannot be a no-op
	if p, err := w.Finish(Options{}); err == nil {
		p.Close()
		t.Fatal("Finish succeeded on a read-only descriptor")
	}
	if _, err := ro.Stat(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("descriptor after the failed Finish: Stat returned %v, want os.ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after the failed Finish: %v", err)
	}
}

// TestWriterCloseAbandons: Close without Finish releases the descriptor and
// later writes fail instead of reaching a closed file silently.
func TestWriterCloseAbandons(t *testing.T) {
	w := writeFile(t, filepath.Join(t.TempDir(), "pages.db"), 64, randomPages(rand.New(rand.NewSource(5)), 2, 64), nil)
	f := w.f
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("descriptor after Close: Stat returned %v, want os.ErrClosed", err)
	}
	if err := w.Write(0, make([]byte, 64)); err == nil {
		t.Fatal("Write after Close succeeded")
	}
}

func TestReadOutOfRange(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64}, 1)
	if _, err := readCopy(p, 1, nil); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("reading past the end returned %v", err)
	}
	if _, err := readCopy(p, -1, nil); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("reading a negative page id returned %v", err)
	}
	w := writeFile(t, filepath.Join(t.TempDir(), "w.db"), 64, nil, nil)
	if err := w.Write(0, make([]byte, 64)); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("writing an unallocated page returned %v", err)
	}
}

// TestWriteWrongSize: a write is a whole number of pages, all allocated.
func TestWriteWrongSize(t *testing.T) {
	w := writeFile(t, filepath.Join(t.TempDir(), "w.db"), 64, nil, nil)
	if err := w.Write(w.Alloc(), make([]byte, 63)); err == nil {
		t.Fatal("expected error for short write")
	}
	if err := w.Write(0, make([]byte, 65)); err == nil {
		t.Fatal("expected error for a write of a page and a byte")
	}
	if err := w.Write(0, make([]byte, 128)); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("writing two pages over one allocated returned %v", err)
	}
	w.Alloc()
	if err := w.Write(0, bytes.Repeat([]byte{7}, 128)); err != nil {
		t.Fatalf("writing two allocated pages: %v", err)
	}
	p, err := w.Finish(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if pages, err := runCopy(p, 0, 2, nil); err != nil || pages[0][63] != 7 || pages[1][0] != 7 {
		t.Fatalf("two-page write read back %v, %v", pages, err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	want := randomPages(rand.New(rand.NewSource(4)), 20, 256)
	p, err := writeFile(t, path, 256, want, nil).Finish(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := Open(path, Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumPages() != 20 {
		t.Fatalf("NumPages after reopen = %d, want 20", q.NumPages())
	}
	for id, data := range want {
		got, err := readCopy(q, int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d differs after reopen", id)
		}
	}
}

func TestOpenRejectsBadLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := writeFile(t, path, 100, make([][]byte, 1), []int{}).Finish(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := Open(path, Options{PageSize: 64}); err == nil {
		t.Fatal("expected error for mismatched page size")
	}
}

// TestStatsCounting: every page read is an access. A file read from disk
// reads every run from the file, a miss per page and one file read per Read;
// a resident file reads a run from the file until it keeps every page of it,
// and serves it from memory (a hit per page) afterwards. ReadDirect reads
// from the file whatever the residency, and keeps nothing.
func TestStatsCounting(t *testing.T) {
	resident := newTestPager(t, Options{PageSize: 64, PoolSize: 10}, 10)
	disk := newTestPager(t, Options{PageSize: 64, PoolSize: 9}, 10)
	if !resident.Resident() || disk.Resident() {
		t.Fatalf("resident %v, disk %v; want true, false", resident.Resident(), disk.Resident())
	}
	for _, p := range []*Pager{resident, disk} {
		if _, err := p.ReadDirect(0, 10, nil, nil); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for id := int64(0); id < 10; id++ {
				if _, err := readCopy(p, id, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := runCopy(p, 2, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The direct read is 10 misses in one file read on both; the first pass
	// over the resident file is 10 misses, the second and the run 15 hits.
	if s := resident.Stats(); s != (Stats{Accesses: 35, Hits: 15, Misses: 20, FileReads: 11}) {
		t.Fatalf("resident: %+v", s)
	}
	if s := disk.Stats(); s != (Stats{Accesses: 35, Misses: 35, FileReads: 22}) {
		t.Fatalf("disk: %+v", s)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Accesses: 10, Misses: 4, FileReads: 2}
	b := Stats{Accesses: 7, Misses: 1, FileReads: 2}
	d := a.Sub(b)
	if d.Accesses != 3 || d.Misses != 3 || d.FileReads != 0 {
		t.Fatalf("Sub = %+v", d)
	}
}

// TestConcurrentReaders: goroutines reading one file at once — resident,
// where they race to keep each page, and read from disk — each read every
// page's own bytes.
func TestConcurrentReaders(t *testing.T) {
	for _, pool := range []int{32, 8} {
		p := newTestPager(t, Options{PageSize: 64, PoolSize: pool}, 32)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var pages [][]byte
				var buf []byte
				for i := 0; i < 200; i++ {
					id := int64((i*7 + g) % 32)
					n := 1 + (i+g)%3
					if id+int64(n) > 32 {
						n = 1
					}
					var err error
					if pages, buf, err = p.Read(id, n, pages[:0], buf, nil); err != nil {
						errs <- err
						return
					}
					for j, page := range pages {
						if page[0] != byte(id+int64(j)) {
							errs <- fmt.Errorf("pool %d goroutine %d: page %d corrupted: got[0]=%d", pool, g, id+int64(j), page[0])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("concurrent read failed: %v", err)
		}
	}
}

// Property: whatever order the pages were written in — rewrites of a page
// included, the last one winning — and whatever the pool size, resident or
// read from disk, the Pager reads back exactly what the Writer was given.
func TestPropertyPoolTransparency(t *testing.T) {
	f := func(seed int64, poolSize uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		w, err := Create(filepath.Join(t.TempDir(), "p.db"), 32)
		if err != nil {
			return false
		}
		defer w.Close()
		for i := 0; i < n; i++ {
			w.Alloc()
		}
		want := make([][]byte, n)
		for _, id := range append(r.Perm(n), r.Perm(n)[:n/2]...) {
			want[id] = make([]byte, 32)
			r.Read(want[id])
			if w.Write(int64(id), want[id]) != nil {
				return false
			}
		}
		p, err := w.Finish(Options{PoolSize: int(poolSize%16) + 1})
		if err != nil {
			return false
		}
		defer p.Close()
		for _, i := range append(r.Perm(n), r.Perm(n)...) {
			got, err := readCopy(p, int64(i), nil)
			if err != nil || !bytes.Equal(got, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIOStatsPerCaller(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 8}, 6)
	ids := []int64{0, 1, 2, 3, 4, 5}
	var a, b IOStats
	// Caller A touches pages 0..3, twice each; caller B touches 2..5 once.
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids[:4] {
			if _, err := readCopy(p, id, &a); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids[2:] {
		if _, err := readCopy(p, id, &b); err != nil {
			t.Fatal(err)
		}
	}
	if a.Reads != 8 || a.Pages() != 4 {
		t.Fatalf("caller A: Reads=%d Pages=%d, want 8/4", a.Reads, a.Pages())
	}
	if b.Reads != 4 || b.Pages() != 4 {
		t.Fatalf("caller B: Reads=%d Pages=%d, want 4/4", b.Reads, b.Pages())
	}
	a.Reset()
	if a.Reads != 0 || a.Pages() != 0 {
		t.Fatalf("after Reset: Reads=%d Pages=%d", a.Reads, a.Pages())
	}
}

func TestIOStatsSpansPagers(t *testing.T) {
	p1 := newTestPager(t, Options{PageSize: 64}, 1)
	p2 := newTestPager(t, Options{PageSize: 64}, 1)
	var io IOStats
	// Page 0 of two different pagers must count as two distinct pages.
	if _, err := readCopy(p1, 0, &io); err != nil {
		t.Fatal(err)
	}
	if _, err := readCopy(p2, 0, &io); err != nil {
		t.Fatal(err)
	}
	if io.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2 (distinct pagers)", io.Pages())
	}
}

// TestIOStatsReusesSets runs one accumulator through queries over one to
// nine pagers, as the pooled query scratch does across shards and index
// generations: every query's Pages and Reads must be its own, whichever sets
// earlier queries left behind, and Note must count with Read.
func TestIOStatsReusesSets(t *testing.T) {
	pagers := make([]*Pager, 9)
	for i := range pagers {
		pagers[i] = newTestPager(t, Options{PageSize: 64}, 200)
	}
	rng := rand.New(rand.NewSource(4))
	var io IOStats
	for q := 0; q < 50; q++ {
		io.Reset()
		// One to all of the pagers, in a random order, with repeats.
		touched := make(map[[2]int64]bool)
		reads := int64(0)
		for range rng.Intn(40) {
			pi := rng.Intn(1 + q%len(pagers))
			id := int64(rng.Intn(200))
			if rng.Intn(4) == 0 {
				pagers[pi].Note(id, &io)
			} else {
				if _, err := readCopy(pagers[pi], id, &io); err != nil {
					t.Fatal(err)
				}
				reads++
			}
			touched[[2]int64{int64(pi), id}] = true
		}
		if io.Pages() != int64(len(touched)) || io.Reads != reads {
			t.Fatalf("query %d: Pages=%d Reads=%d, want %d/%d", q, io.Pages(), io.Reads, len(touched), reads)
		}
	}
}

func TestNilIOStatsDiscards(t *testing.T) {
	var io *IOStats
	io.record(1, 2) // must not panic
	if io.Pages() != 0 {
		t.Fatal("nil IOStats reported pages")
	}
	io.Reset()
}

// TestConcurrentPerQueryAccounting is the pager-level version of the
// index-level guarantee: goroutines hammering one pager each see exactly
// their own page set in their IOStats, independent of pool state and of
// what the other goroutines read.
func TestConcurrentPerQueryAccounting(t *testing.T) {
	const numPages = 24
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 4}, numPages)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var io IOStats
			seen := make(map[int64]bool)
			for i := 0; i < 300; i++ {
				id := int64((i*5 + g*3) % numPages)
				got, err := readCopy(p, id, &io)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != byte(id) {
					errs <- fmt.Errorf("goroutine %d: page %d corrupted: got[0]=%d, want %d", g, id, got[0], id)
					return
				}
				seen[id] = true
			}
			if io.Reads != 300 || io.Pages() != int64(len(seen)) {
				errs <- fmt.Errorf("goroutine %d: accounting drift: Reads=%d (want 300), Pages=%d (want %d)", g, io.Reads, io.Pages(), len(seen))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent accounting failed: %v", err)
	}
}

// TestReadDirect: ReadDirect fills the caller's buffer — grown when too
// small, reused when not — with one file read however many pages it spans,
// every page accounted as an access and a miss, whatever the residency; it
// keeps nothing, so a Read of the same pages from a resident file still
// misses. Both return the bytes written, on the Pager Finish handed out and
// on the file reopened.
func TestReadDirect(t *testing.T) {
	const pageSize, pages = 128, 40
	path := filepath.Join(t.TempDir(), "pages.db")
	content := make([][]byte, pages)
	for id := range content {
		content[id] = bytes.Repeat([]byte{byte(id + 1)}, pageSize)
	}
	p, err := writeFile(t, path, pageSize, content, nil).Finish(Options{PoolSize: pages})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, p *Pager) {
		t.Helper()
		before := p.Stats()
		var io IOStats
		run, err := p.ReadDirect(0, pages, make([]byte, pageSize), &io)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if delta := p.Stats().Sub(before); delta != (Stats{Accesses: pages, Misses: pages, FileReads: 1}) {
			t.Fatalf("%s: direct read of %d pages recorded %+v", name, pages, delta)
		}
		if io.Pages() != pages || io.Reads != pages {
			t.Fatalf("%s: IOStats saw %d pages in %d reads, want %d", name, io.Pages(), io.Reads, pages)
		}
		for id := range pages {
			if !bytes.Equal(run[id*pageSize:(id+1)*pageSize], content[id]) {
				t.Fatalf("%s: page %d differs from what was written", name, id)
			}
		}
		before = p.Stats()
		if _, err := readCopy(p, 5, nil); err != nil {
			t.Fatal(err)
		}
		if d := p.Stats().Sub(before); d.Misses != 1 {
			t.Fatalf("%s: a Read after the direct read recorded %+v: the direct read kept a page", name, d)
		}
		// A run in the middle into a buffer large enough, and the refusals.
		big := make([]byte, 4*pageSize)
		if run, err := p.ReadDirect(7, 3, big, nil); err != nil || len(run) != 3*pageSize || run[0] != 8 || run[2*pageSize] != 10 || &run[0] != &big[0] {
			t.Fatalf("%s: read of pages [7,10): err=%v", name, err)
		}
		if _, err := p.ReadDirect(pages-1, 2, nil, nil); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("%s: read past the end returned %v", name, err)
		}
	}
	check("finished", p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pool := range []int{pages - 1, pages} {
		reopened, err := Open(path, Options{PageSize: pageSize, PoolSize: pool})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("reopened with a %d-page budget", pool), reopened)
		reopened.Close()
	}
}

// TestReadRunBasics covers a read of a run of pages, on a resident file
// and on one read from disk: its pages, where they live and their
// accounting, and the error cases.
func TestReadRunBasics(t *testing.T) {
	const n = 64
	for _, pool := range []int{n, n - 1} {
		p := newTestPager(t, Options{PageSize: 64, PoolSize: pool}, n)
		var io IOStats
		buf := make([]byte, 0, 20*64)
		for pass := 0; pass < 2; pass++ {
			var pages [][]byte
			var err error
			if pages, buf, err = p.Read(3, 20, nil, buf, &io); err != nil {
				t.Fatal(err)
			}
			for i, page := range pages {
				if len(page) != 64 || page[0] != byte(3+i) {
					t.Fatalf("pool %d: run page %d (id %d) corrupted", pool, i, 3+i)
				}
				// A resident file's pages are its own copies; a file read from
				// disk reads into the caller's buffer.
				if inBuf := &page[0] == &buf[i*64]; inBuf == p.Resident() {
					t.Fatalf("pool %d pass %d: page %d in the caller's buffer: %v", pool, pass, i, inBuf)
				}
			}
		}
		if io.Reads != 40 || io.Pages() != 20 {
			t.Fatalf("pool %d: io: Reads=%d Pages=%d, want 40/20", pool, io.Reads, io.Pages())
		}
		if _, _, err := p.Read(-1, 2, nil, nil, nil); err == nil {
			t.Fatal("expected error for negative first page")
		}
		if _, _, err := p.Read(n-1, 2, nil, nil, nil); err == nil {
			t.Fatal("expected error for run past the end")
		}
		if _, _, err := p.Read(2, -1, nil, nil, nil); err == nil {
			t.Fatal("expected error for a negative page count")
		}
		if out, _, err := p.Read(5, 0, nil, nil, nil); err != nil || len(out) != 0 {
			t.Fatalf("empty run: %v, %d pages", err, len(out))
		}
	}
}

// TestReadRunSeesWrites: a page the Writer wrote twice (as the iDistance ring
// writer re-flushes the page the next ring continues on) reads back with its
// last content, from the file and from memory.
func TestReadRunSeesWrites(t *testing.T) {
	stale, fresh := bytes.Repeat([]byte{0x11}, 64), bytes.Repeat([]byte{0xEE}, 64)
	for _, pool := range []int{3, 2} {
		w := writeFile(t, filepath.Join(t.TempDir(), "pages.db"), 64, [][]byte{stale, stale, stale}, nil)
		if err := w.Write(1, fresh); err != nil {
			t.Fatal(err)
		}
		p, err := w.Finish(Options{PoolSize: pool})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			pages, err := runCopy(p, 0, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pages[0], stale) || !bytes.Equal(pages[1], fresh) || !bytes.Equal(pages[2], stale) {
				t.Fatalf("pool %d pass %d: the run is not the last write of each page", pool, pass)
			}
		}
		p.Close()
	}
}

// TestReadRunAgainstRandomReads cross-checks runs against single-page reads
// under random interleaving, on a resident file that keeps pages as they
// are read (runs partly kept included) and on one read from disk through
// one reused buffer.
func TestReadRunAgainstRandomReads(t *testing.T) {
	const n = 40
	for _, pool := range []int{n, 4} {
		p := newTestPager(t, Options{PageSize: 64, PoolSize: pool}, n)
		rng := rand.New(rand.NewSource(77))
		var pages [][]byte
		var buf []byte
		for trial := 0; trial < 300; trial++ {
			first := int64(rng.Intn(n))
			length := 1
			if rng.Intn(2) == 0 {
				length += rng.Intn(int(int64(n) - first))
			}
			var err error
			if pages, buf, err = p.Read(first, length, pages[:0], buf, nil); err != nil {
				t.Fatal(err)
			}
			for i, page := range pages {
				if page[0] != byte(first+int64(i)) {
					t.Fatalf("pool %d trial %d: run page id %d corrupted", pool, trial, first+int64(i))
				}
			}
		}
	}
}
