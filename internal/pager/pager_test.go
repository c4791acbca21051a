package pager

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func newTestPager(t *testing.T, opts Options) *Pager {
	t.Helper()
	p, err := Create(filepath.Join(t.TempDir(), "pages.db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestAllocReadWriteRoundTrip(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 128})
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 128)
	if err := p.Write(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back different data")
	}
}

func TestAllocReturnsZeroedPage(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64})
	id, _ := p.Alloc()
	got, err := p.Read(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
}

func TestReadOutOfRange(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64})
	if _, err := p.Read(0, nil); err == nil {
		t.Fatal("expected error reading unallocated page")
	}
	if _, err := p.Read(-1, nil); err == nil {
		t.Fatal("expected error reading negative page id")
	}
	if err := p.Write(5, make([]byte, 64)); err == nil {
		t.Fatal("expected error writing unallocated page")
	}
}

func TestWriteWrongSize(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64})
	id, _ := p.Alloc()
	if err := p.Write(id, make([]byte, 63)); err == nil {
		t.Fatal("expected error for short write")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	p, err := Create(path, Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		id, _ := p.Alloc()
		data := make([]byte, 256)
		r.Read(data)
		if err := p.Write(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = data
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
		got, err := q.Read(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d differs after reopen", id)
		}
	}
}

func TestOpenRejectsBadLength(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	p, _ := Create(path, Options{PageSize: 100})
	p.Alloc()
	p.Close()
	if _, err := Open(path, Options{PageSize: 64}); err == nil {
		t.Fatal("expected error for mismatched page size")
	}
}

func TestStatsCounting(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 4})
	var ids []int64
	for i := 0; i < 10; i++ {
		id, _ := p.Alloc()
		ids = append(ids, id)
	}
	if err := p.DropPool(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for _, id := range ids {
		if _, err := p.Read(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Accesses != 10 {
		t.Fatalf("Accesses = %d, want 10", s.Accesses)
	}
	if s.Misses != 10 {
		t.Fatalf("Misses = %d, want 10 (cold pool of size 4)", s.Misses)
	}
	// Re-reading the last 4 pages hits the pool: accesses grow, misses don't.
	for _, id := range ids[6:] {
		p.Read(id, nil)
	}
	s2 := p.Stats()
	if s2.Accesses != 14 {
		t.Fatalf("Accesses = %d, want 14", s2.Accesses)
	}
	if s2.Misses != 10 {
		t.Fatalf("Misses = %d, want 10 (hits in pool)", s2.Misses)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Accesses: 10, Misses: 4, Writes: 2}
	b := Stats{Accesses: 7, Misses: 1, Writes: 2}
	d := a.Sub(b)
	if d.Accesses != 3 || d.Misses != 3 || d.Writes != 0 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestLRUEvictionPreservesData(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 2})
	r := rand.New(rand.NewSource(8))
	want := make([][]byte, 16)
	for i := range want {
		id, _ := p.Alloc()
		data := make([]byte, 64)
		r.Read(data)
		if err := p.Write(id, data); err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	// All but 2 pages have been evicted (and flushed). Everything must read
	// back intact.
	for i, data := range want {
		got, err := p.Read(int64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d corrupted by eviction", i)
		}
	}
}

func TestReadCopyIsPrivate(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64})
	id, _ := p.Alloc()
	data := bytes.Repeat([]byte{7}, 64)
	p.Write(id, data)
	cp, err := p.ReadCopy(id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp[0] = 99
	got, _ := p.Read(id, nil)
	if got[0] != 7 {
		t.Fatal("ReadCopy aliased the pool buffer")
	}
}

func TestConcurrentReaders(t *testing.T) {
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 8})
	var ids []int64
	for i := 0; i < 32; i++ {
		id, _ := p.Alloc()
		data := make([]byte, 64)
		data[0] = byte(i)
		p.Write(id, data)
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(i*7+g)%len(ids)]
				got, err := p.ReadCopy(id, nil, nil)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != byte(id) {
					errs <- fmt.Errorf("goroutine %d: page %d corrupted: got[0]=%d, want %d", g, id, got[0], id)
					return
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

// Property: any sequence of writes followed by reads returns the written
// data, regardless of pool size (i.e. the pool is transparent).
func TestPropertyPoolTransparency(t *testing.T) {
	f := func(seed int64, poolSize uint8) bool {
		dir := t.TempDir()
		p, err := Create(filepath.Join(dir, "p.db"), Options{PageSize: 32, PoolSize: int(poolSize%16) + 1})
		if err != nil {
			return false
		}
		defer p.Close()
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		want := make([][]byte, n)
		for i := 0; i < n; i++ {
			id, _ := p.Alloc()
			data := make([]byte, 32)
			r.Read(data)
			if p.Write(id, data) != nil {
				return false
			}
			want[i] = data
		}
		// Random overwrite pass.
		for i := 0; i < n/2; i++ {
			id := int64(r.Intn(n))
			data := make([]byte, 32)
			r.Read(data)
			if p.Write(id, data) != nil {
				return false
			}
			want[id] = data
		}
		for i := 0; i < n; i++ {
			got, err := p.Read(int64(i), nil)
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
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 8})
	var ids []int64
	for i := 0; i < 6; i++ {
		id, _ := p.Alloc()
		ids = append(ids, id)
	}
	var a, b IOStats
	// Caller A touches pages 0..3, twice each; caller B touches 2..5 once.
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids[:4] {
			if _, err := p.Read(id, &a); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids[2:] {
		if _, err := p.Read(id, &b); err != nil {
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
	dir := t.TempDir()
	p1, err := Create(filepath.Join(dir, "a.db"), Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := Create(filepath.Join(dir, "b.db"), Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	id1, _ := p1.Alloc()
	id2, _ := p2.Alloc()
	var io IOStats
	// Page 0 of two different pagers must count as two distinct pages.
	if _, err := p1.Read(id1, &io); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Read(id2, &io); err != nil {
		t.Fatal(err)
	}
	if io.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2 (distinct pagers)", io.Pages())
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
	p := newTestPager(t, Options{PageSize: 64, PoolSize: 4})
	const numPages = 24
	for i := 0; i < numPages; i++ {
		id, _ := p.Alloc()
		data := make([]byte, 64)
		data[0] = byte(id)
		if err := p.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
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
				got, err := p.Read(id, &io)
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

// TestReadDirect: the pool-bypassing read returns, for every page, the bytes
// Read returns — on the pager that wrote them (after Sync) and on the file
// reopened — with one file read however many pages it spans, every page
// accounted as an access and a miss, and the pool untouched. It is refused
// while any page allocated or written since the last Sync may exist only in
// the pool.
func TestReadDirect(t *testing.T) {
	const pageSize, pages, pool = 128, 40, 8
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := Create(path, Options{PageSize: pageSize, PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pages*pageSize)
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadDirect(0, buf[:pageSize], nil); !errors.Is(err, ErrUnsyncedPages) {
		t.Fatalf("direct read of a freshly allocated page returned %v, want ErrUnsyncedPages", err)
	}
	for id := int64(0); id < pages; id++ {
		if id > 0 {
			if _, err := p.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Write(id, bytes.Repeat([]byte{byte(id + 1)}, pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ReadDirect(0, buf, nil); !errors.Is(err, ErrUnsyncedPages) {
		t.Fatalf("direct read before Sync returned %v, want ErrUnsyncedPages", err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	check := func(name string, p *Pager) {
		t.Helper()
		before := p.Stats()
		var io IOStats
		if err := p.ReadDirect(0, buf, &io); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delta := p.Stats().Sub(before)
		if delta.Accesses != pages || delta.Misses != pages || delta.FileReads != 1 || delta.Hits != 0 || delta.Evictions != 0 {
			t.Fatalf("%s: direct read of %d pages recorded %+v", name, pages, delta)
		}
		if io.Pages() != pages || io.Reads != pages {
			t.Fatalf("%s: IOStats saw %d pages in %d reads, want %d", name, io.Pages(), io.Reads, pages)
		}
		for id := int64(0); id < pages; id++ {
			want, err := p.Read(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[id*pageSize:(id+1)*pageSize], want) {
				t.Fatalf("%s: page %d differs from Read", name, id)
			}
		}
		// A run in the middle, and the refusals.
		if err := p.ReadDirect(7, buf[:3*pageSize], nil); err != nil || buf[0] != 8 || buf[2*pageSize] != 10 {
			t.Fatalf("%s: direct read of pages [7,10): err=%v first bytes %d, %d", name, err, buf[0], buf[2*pageSize])
		}
		if err := p.ReadDirect(pages-1, buf[:2*pageSize], nil); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("%s: direct read past the end returned %v", name, err)
		}
		if err := p.ReadDirect(0, buf[:pageSize+1], nil); err == nil {
			t.Fatalf("%s: direct read of a partial page succeeded", name)
		}
	}
	check("synced", p)
	// One write makes the file stale for that page until the next Sync.
	if err := p.Write(3, bytes.Repeat([]byte{0xEE}, pageSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadDirect(0, buf, nil); !errors.Is(err, ErrUnsyncedPages) {
		t.Fatalf("direct read after a Write returned %v, want ErrUnsyncedPages", err)
	}
	if err := p.Write(3, bytes.Repeat([]byte{4}, pageSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // Close syncs
		t.Fatal(err)
	}
	reopened, err := Open(path, Options{PageSize: pageSize, PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened", reopened)
}
