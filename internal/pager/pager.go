// Package pager provides write-once page files: a Writer creates a file and
// puts its pages straight into it, Finish makes the file durable and hands it
// to a Pager — a read-only, sharded CLOCK buffer pool with page-access
// accounting — and nothing writes the file again. Every disk-resident
// structure in this repository (the iDistance B+-tree, the original-vector
// store, QALSH's hash tables, Range-LSH's sequential partitions, PQ's
// inverted lists) is built through a Writer and read through a Pager, so the
// paper's "Page Access" metric is measured identically for every method: one
// logical access per page touched.
//
// Concurrency. A Pager is safe for concurrent use (a Writer belongs to the
// one goroutine building the file). The buffer pool is split
// into lock-striped shards keyed by page id (consecutive pages share a
// shard block, so short sequential runs resolve under one shard lock), and
// the pool-hit path — the common case on a warm index — takes only that
// shard's lock shared, so goroutines serving different queries do not
// serialize on one pool mutex. Misses read the file OUTSIDE any lock and
// install the page under the shard's exclusive lock afterwards: concurrent
// misses — the case that dominates on a disk-resident working set — overlap
// instead of queueing behind a global mutex (two goroutines missing the
// same page may duplicate the file read; the first installed copy wins).
// Per-caller accounting goes through IOStats: each query owns an
// accumulator and threads it through every Read, so no query ever needs to
// reset the shared counters to measure itself.
//
// Eviction is CLOCK second-chance per shard: hits set a reference bit with
// one atomic store, and a miss that needs room sweeps the shard's ring,
// giving referenced pages a second pass before they go. This keeps the hit
// path free of list maintenance (no LRU chain to relink under a lock).
//
// Page slices returned by Read alias the buffer pool and are never mutated:
// the file is immutable and eviction only drops the pool's reference, so a
// slice stays valid for as long as the caller keeps it.
package pager

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"promips/internal/errs"
)

// DefaultPageSize matches the paper's 4KB pages (64KB is used for P53).
const DefaultPageSize = 4096

// ErrPageOutOfRange is returned when a page id does not exist in the file.
var ErrPageOutOfRange = errors.New("pager: page id out of range")

// Sharding geometry. maxShards bounds the stripe count; shardBlockShift
// groups runs of 2^shardBlockShift consecutive pages into one shard, so the
// sequential runs ReadRun fetches (sub-partition scans, store verification
// windows) resolve under a single shard lock while unrelated queries still
// spread across stripes.
const (
	maxShards       = 16
	shardBlockShift = 3 // 8-page blocks
	minShardPages   = 32
)

// Stats counts I/O activity. Accesses is the number of logical page reads
// issued through the pager; Hits the buffer-pool hits among them; Misses
// the pool misses (pages actually read from the file); Evictions the pages
// CLOCK dropped from the pool to make room; FileReads the read calls issued
// against the file to serve the misses (one per missed page for Read, one per
// gap-free span for ReadRun, one per ReadDirect however many pages it spans).
type Stats struct {
	Accesses  int64
	Hits      int64
	Misses    int64
	Evictions int64
	FileReads int64
}

// Sub returns s - t component-wise; callers snapshot Stats around a query to
// obtain its per-query page accesses.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Accesses:  s.Accesses - t.Accesses,
		Hits:      s.Hits - t.Hits,
		Misses:    s.Misses - t.Misses,
		Evictions: s.Evictions - t.Evictions,
		FileReads: s.FileReads - t.FileReads,
	}
}

// Add returns s + t component-wise, for aggregating counters across the
// pagers of one index.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Accesses:  s.Accesses + t.Accesses,
		Hits:      s.Hits + t.Hits,
		Misses:    s.Misses + t.Misses,
		Evictions: s.Evictions + t.Evictions,
		FileReads: s.FileReads + t.FileReads,
	}
}

// HitRatio returns Hits/Accesses, or 0 when no accesses were recorded.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// ioKey identifies one page of one pager inside an IOStats set.
type ioKey struct {
	pager uint64
	page  int64
}

// IOStats accumulates one caller's I/O across any number of pagers. It is
// the per-query accounting channel: searches thread one accumulator through
// every page read they issue, so the paper's Page Access metric is measured
// per query without resetting (or even looking at) the pagers' shared
// counters — which is what makes concurrent queries over one index
// measurable at all.
//
// Recording is a slice append (the record path runs once per page read on
// the query hot path, so it must not hash); the distinct-page reduction is
// deferred to Pages, which sorts and compacts the log in place, once, when
// the caller reads the metric.
//
// The zero value is ready to use. A nil *IOStats is valid everywhere one is
// accepted and discards the accounting. An IOStats is NOT safe for
// concurrent use: each query owns its own.
type IOStats struct {
	// Reads counts logical page reads (every Read call, and one per page of a
	// ReadRun or ReadDirect).
	Reads int64

	seen   []ioKey // access log; seen[:unique] is sorted and duplicate-free
	unique int
}

func (s *IOStats) record(pager uint64, page int64) {
	if s == nil {
		return
	}
	s.Reads++
	// Repeat reads of the page just touched are the common duplicate shape
	// (sequential scans re-entering a boundary page, B+-tree descents), and
	// skipping them keeps the log near the distinct-page count.
	if n := len(s.seen); n > 0 && s.seen[n-1] == (ioKey{pager, page}) {
		return
	}
	s.seen = append(s.seen, ioKey{pager, page})
}

// Pages returns the number of distinct pages touched — the paper's Page
// Access metric (equivalent to the buffer-pool misses a query would incur
// against a cold pool large enough to hold its working set, which is how
// the metric was measured before accounting became per-query).
func (s *IOStats) Pages() int64 {
	if s == nil {
		return 0
	}
	if len(s.seen) != s.unique {
		sortIOKeys(s.seen)
		s.seen = slices.Compact(s.seen)
		s.unique = len(s.seen)
	}
	return int64(s.unique)
}

// Reset clears the accumulator for reuse, keeping its storage.
func (s *IOStats) Reset() {
	if s == nil {
		return
	}
	s.Reads = 0
	s.seen = s.seen[:0]
	s.unique = 0
}

// nextPagerID distinguishes pagers inside IOStats sets.
var nextPagerID atomic.Uint64

// poolEntry is one cached page. The reference bit starts CLEAR on install
// and is set only by a later hit, so the CLOCK sweep grants
// its second chance to re-referenced pages specifically: a sequential scan
// that touches each page once cannot displace the re-used working set
// behind it (scan resistance), and a fill evicts in insertion order like
// the LRU it replaced.
type poolEntry struct {
	id   int64
	data []byte
	ref  atomic.Bool // CLOCK reference bit; set on re-touch, cleared by the sweep
}

// shard is one stripe of the buffer pool: a page map plus a CLOCK ring of
// at most cap entries.
type shard struct {
	mu   sync.RWMutex
	pool map[int64]*poolEntry
	ring []*poolEntry
	hand int
	cap  int
}

// Pager reads one finished page file through its buffer pool. It is safe for
// concurrent use; see the package comment for the locking contract.
type Pager struct {
	f        *os.File
	id       uint64
	pageSize int
	numPages int64
	shards   []shard
	shardN   int64 // len(shards), for the id → shard map

	accesses  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	fileReads atomic.Int64
}

// Options configures a Pager.
type Options struct {
	PageSize int // 0 means DefaultPageSize; Finish uses the Writer's instead
	PoolSize int // buffer pool capacity in pages; 0 means 1024
}

func (o *Options) normalize() {
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 1024
	}
}

// Open opens an existing page file. The file length must be a multiple of
// the page size.
func Open(path string, opts Options) (*Pager, error) {
	opts.normalize()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	if fi.Size()%int64(opts.PageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s length %d is not a multiple of page size %d: %w",
			path, fi.Size(), opts.PageSize, errs.ErrCorruptIndex)
	}
	return newPager(f, opts, fi.Size()/int64(opts.PageSize)), nil
}

func newPager(f *os.File, opts Options, numPages int64) *Pager {
	// Stripe count scales with the pool: a pool below minShardPages per
	// stripe gains nothing from striping (and would fragment its capacity
	// into useless slivers), a big pool stripes up to maxShards. Power of
	// two so the shard map is a mask.
	nShards := 1
	for nShards < maxShards && opts.PoolSize/(nShards*2) >= minShardPages {
		nShards *= 2
	}
	perShard := (opts.PoolSize + nShards - 1) / nShards
	p := &Pager{
		f:        f,
		id:       nextPagerID.Add(1),
		pageSize: opts.PageSize,
		numPages: numPages,
		shards:   make([]shard, nShards),
		shardN:   int64(nShards),
	}
	for i := range p.shards {
		p.shards[i] = shard{pool: make(map[int64]*poolEntry), cap: perShard}
	}
	return p
}

// shard maps a page id to its stripe: consecutive pages share a
// 2^shardBlockShift block, blocks round-robin across stripes.
func (p *Pager) shard(id int64) *shard {
	return &p.shards[(id>>shardBlockShift)&(p.shardN-1)]
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of pages in the file.
func (p *Pager) NumPages() int64 { return p.numPages }

// SizeBytes returns the on-disk size of the page file.
func (p *Pager) SizeBytes() int64 { return p.numPages * int64(p.pageSize) }

// PoolPages returns the buffer pool's capacity in pages.
func (p *Pager) PoolPages() int64 { return p.shardN * int64(p.shards[0].cap) }

// Shards returns the number of buffer-pool stripes in use (diagnostics).
func (p *Pager) Shards() int { return int(p.shardN) }

// Stats returns a snapshot of the shared I/O counters. Per-query accounting
// should use IOStats instead; the shared counters exist for whole-run
// aggregates, hit-ratio diagnostics and the single-threaded baselines.
func (p *Pager) Stats() Stats {
	return Stats{
		Accesses:  p.accesses.Load(),
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		FileReads: p.fileReads.Load(),
	}
}

// ResetStats zeroes the shared I/O counters.
func (p *Pager) ResetStats() {
	p.accesses.Store(0)
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
	p.fileReads.Store(0)
}

// Read returns the content of page id, recording the access in io (nil
// discards the accounting). The returned slice aliases the buffer pool;
// callers must treat it as read-only. It stays valid for as long as the
// caller keeps it, but holding it does not pin the page in the pool.
func (p *Pager) Read(id int64, io *IOStats) ([]byte, error) {
	if id < 0 || id >= p.numPages {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrPageOutOfRange, id, p.numPages)
	}
	p.accesses.Add(1)
	io.record(p.id, id)
	sh := p.shard(id)
	sh.mu.RLock()
	if e, ok := sh.pool[id]; ok {
		e.ref.Store(true)
		data := e.data
		sh.mu.RUnlock()
		p.hits.Add(1)
		return data, nil
	}
	sh.mu.RUnlock()
	return p.readMiss(sh, id)
}

// readMiss loads a page from the file with no lock held — misses in
// different (or even the same) shard overlap — then installs it under the
// shard's exclusive lock. When another goroutine installed the page
// meanwhile, the pooled copy wins, so every reader shares one buffer.
func (p *Pager) readMiss(sh *shard, id int64) ([]byte, error) {
	p.misses.Add(1)
	data := make([]byte, p.pageSize)
	if _, err := p.readAt(data, id); err != nil {
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.pool[id]; ok {
		e.ref.Store(true)
		return e.data, nil
	}
	sh.insert(p, &poolEntry{id: id, data: data})
	return data, nil
}

// readAt fills buf from the file starting at page first: every read the
// pager issues goes through here, so FileReads counts them all.
func (p *Pager) readAt(buf []byte, first int64) (int, error) {
	p.fileReads.Add(1)
	return p.f.ReadAt(buf, first*int64(p.pageSize))
}

// ReadRun returns the contents of the n consecutive pages starting at
// first, appended to dst, recording one access per page in io. Cached pages
// come from the pool; the missing ones of each shard block are fetched with
// one contiguous file read per gap-free span, which is what makes a
// sub-partition's short sequential page run cost one I/O round trip instead
// of one per page. The returned slices alias the buffer pool under the same
// stability contract as Read.
func (p *Pager) ReadRun(first int64, n int, dst [][]byte, io *IOStats) ([][]byte, error) {
	if n <= 0 {
		return dst, nil
	}
	if first < 0 || first+int64(n) > p.numPages {
		return nil, fmt.Errorf("%w: run [%d,%d) (have %d)", ErrPageOutOfRange, first, first+int64(n), p.numPages)
	}
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, nil)
		io.record(p.id, first+int64(i))
	}
	p.accesses.Add(int64(n))
	// Walk the run one shard block at a time: every page of a block lives in
	// the same shard, so the block's hits and installs happen under one lock
	// acquisition.
	blockSize := int64(1) << shardBlockShift
	for start := first; start < first+int64(n); {
		end := (start/blockSize + 1) * blockSize
		if last := first + int64(n); end > last {
			end = last
		}
		if err := p.readChunk(start, end, dst[base+int(start-first):base+int(end-first)]); err != nil {
			return nil, err
		}
		start = end
	}
	return dst, nil
}

// chunkSpan is one gap-free run of missing pages inside a shard block,
// with its own exactly sized buffer: installed pool entries alias it page
// by page, so a resident entry never pins bytes beyond its own span (a
// block-wide buffer would let one cached page retain the whole block).
type chunkSpan struct {
	first, end int64
	buf        []byte
}

// readChunk fills out with pages [start, end) of one shard block. The fast
// path (everything cached) finishes under the shared lock; otherwise the
// missing pages are read from the file in contiguous spans without any
// lock and installed under the exclusive lock, the pool copy winning a raced
// install as in readMiss.
func (p *Pager) readChunk(start, end int64, out [][]byte) error {
	sh := p.shard(start)
	missing := 0
	sh.mu.RLock()
	for id := start; id < end; id++ {
		if e, ok := sh.pool[id]; ok {
			e.ref.Store(true)
			out[id-start] = e.data
		} else {
			missing++
		}
	}
	sh.mu.RUnlock()
	if missing == 0 {
		p.hits.Add(end - start)
		return nil
	}
	p.hits.Add(end - start - int64(missing))
	p.misses.Add(int64(missing))

	// Read every gap-free span of missing pages with one ReadAt into a
	// span-sized buffer.
	var spans []chunkSpan
	for id := start; id < end; {
		if out[id-start] != nil {
			id++
			continue
		}
		spanEnd := id + 1
		for spanEnd < end && out[spanEnd-start] == nil {
			spanEnd++
		}
		span := chunkSpan{first: id, end: spanEnd, buf: make([]byte, int(spanEnd-id)*p.pageSize)}
		if _, err := p.readAt(span.buf, id); err != nil {
			return fmt.Errorf("pager: read pages [%d,%d): %w", id, spanEnd, err)
		}
		spans = append(spans, span)
		id = spanEnd
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, span := range spans {
		for id := span.first; id < span.end; id++ {
			if e, ok := sh.pool[id]; ok {
				// Installed concurrently; the pool copy wins.
				e.ref.Store(true)
				out[id-start] = e.data
				continue
			}
			off := int(id-span.first) * p.pageSize
			e := &poolEntry{id: id, data: span.buf[off : off+p.pageSize]}
			sh.insert(p, e)
			out[id-start] = e.data
		}
	}
	return nil
}

// ReadDirect fills buf — a whole number of pages — with the consecutive
// pages starting at first, using ONE file read that bypasses the buffer
// pool: nothing is looked up, allocated, installed or evicted. It is the
// read of a sequential scan over a file far larger than the pool, which
// would otherwise evict the pool's whole working set to install pages it
// never touches again. Every page is still accounted as one access and one
// miss, in io and in the shared counters.
func (p *Pager) ReadDirect(first int64, buf []byte, io *IOStats) error {
	n := len(buf) / p.pageSize
	if n*p.pageSize != len(buf) {
		return fmt.Errorf("pager: direct read of %d bytes is not a whole number of %d-byte pages", len(buf), p.pageSize)
	}
	if first < 0 || first+int64(n) > p.numPages {
		return fmt.Errorf("%w: run [%d,%d) (have %d)", ErrPageOutOfRange, first, first+int64(n), p.numPages)
	}
	for i := 0; i < n; i++ {
		io.record(p.id, first+int64(i))
	}
	p.accesses.Add(int64(n))
	p.misses.Add(int64(n))
	if _, err := p.readAt(buf, first); err != nil {
		return fmt.Errorf("pager: read pages [%d,%d): %w", first, first+int64(n), err)
	}
	return nil
}

// RecordRead accounts a logical read of page id that was served by a cache
// layered above the pager (e.g. the B+-tree's decoded-node cache), so the
// paper's Page Access metric stays identical whether or not the cache is in
// play. The buffer pool is not touched.
func (p *Pager) RecordRead(id int64, io *IOStats) {
	p.accesses.Add(1)
	p.hits.Add(1)
	io.record(p.id, id)
}

// insert adds e to the shard (whose lock the caller holds), evicting with
// the CLOCK sweep when the ring is full.
func (sh *shard) insert(p *Pager, e *poolEntry) {
	if len(sh.ring) < sh.cap {
		sh.ring = append(sh.ring, e)
		sh.pool[e.id] = e
		return
	}
	// CLOCK second chance: sweep from the hand, clearing reference bits;
	// the first unreferenced entry is the victim. Concurrent hits can re-set
	// bits behind the hand, so the sweep is bounded: after two full passes
	// the entry under the hand is taken regardless.
	for step := 0; ; step++ {
		cand := sh.ring[sh.hand]
		if step < 2*len(sh.ring) && cand.ref.Swap(false) {
			sh.hand = (sh.hand + 1) % len(sh.ring)
			continue
		}
		delete(sh.pool, cand.id)
		p.evictions.Add(1)
		sh.ring[sh.hand] = e
		sh.pool[e.id] = e
		sh.hand = (sh.hand + 1) % len(sh.ring)
		return
	}
}

// DropPool empties the buffer pool, so subsequent reads count as misses.
// Benchmarks call this between queries to model a cold cache.
func (p *Pager) DropPool() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.pool = make(map[int64]*poolEntry)
		sh.ring = sh.ring[:0]
		sh.hand = 0
		sh.mu.Unlock()
	}
}

// Close closes the page file.
func (p *Pager) Close() error { return p.f.Close() }
