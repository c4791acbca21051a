// Package pager provides write-once page files: a Writer creates a file and
// puts its pages straight into it, Finish makes the file durable and hands it
// to a Pager — a read-only, sharded CLOCK buffer pool with page-access
// accounting — and nothing writes the file again. Every disk-resident
// structure in this repository (the iDistance projected-data pages, the
// original-vector store, QALSH's hash tables, Range-LSH's sequential
// partitions, PQ's inverted lists) is built through a Writer and read
// through a Pager, so the paper's "Page Access" metric is measured
// identically for every method: one logical access per page touched.
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
// Frames are recycled under a pin count. Read and ReadRun hand out Pages,
// each pinned under the shard lock that found or installed it; a Page's
// bytes are valid until its holder calls Release, and not after. CLOCK never
// evicts a pinned entry, and an evicted entry — its frame included — goes to
// the shard's free list, where the next miss reads into it instead of
// allocating. A miss that finds every entry of its shard pinned returns an
// unpooled frame rather than waiting.
package pager

import (
	"errors"
	"fmt"
	"os"
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

// IOStats accumulates one caller's I/O across any number of pagers. It is
// the per-query accounting channel: searches thread one accumulator through
// every page read they issue, so the paper's Page Access metric is measured
// per query without resetting (or even looking at) the pagers' shared
// counters — which is what makes concurrent queries over one index
// measurable at all.
//
// Recording runs once per page read on the query hot path, so it neither
// hashes nor logs: each pager the caller touches gets a bitset with one bit
// per page, and a page is counted the first time its bit is set. A query
// touches two or three pagers, so the set is found by a linear search that
// starts at the last one used.
//
// The zero value is ready to use. A nil *IOStats is valid everywhere one is
// accepted and discards the accounting. An IOStats is NOT safe for
// concurrent use: each query owns its own.
type IOStats struct {
	// Reads counts logical page reads (every Read call, and one per page of a
	// ReadRun or ReadDirect).
	Reads int64

	pages int64     // distinct pages noted
	sets  []pageSet // as many as the most pagers one query has touched
	last  int       // the set noted last
}

// pageSet is the pages of one pager an IOStats has noted.
type pageSet struct {
	pager uint64   // the Pager's id
	bits  []uint64 // bit i%64 of word i/64 is page i; grown on demand
	words []int    // the words with a bit set, which Reset clears
}

func (s *IOStats) record(pager uint64, page int64) {
	if s == nil {
		return
	}
	s.Reads++
	s.note(pager, page)
}

// note adds the page to the distinct pages without counting a read.
func (s *IOStats) note(pager uint64, page int64) {
	if s == nil {
		return
	}
	ps := s.set(pager)
	w, bit := int(page>>6), uint64(1)<<(page&63)
	if w >= len(ps.bits) {
		ps.bits = append(ps.bits, make([]uint64, w+1-len(ps.bits))...)
	}
	switch x := ps.bits[w]; {
	case x&bit != 0:
		return
	case x == 0:
		ps.words = append(ps.words, w)
	}
	ps.bits[w] |= bit
	s.pages++
}

// set returns pager's page set. A pager without one takes a set that holds
// no page, or a new one: the query scratch that owns the accumulator is
// pooled across every index (and shard) of a process, and only the pagers
// of one query need a set at a time.
func (s *IOStats) set(pager uint64) *pageSet {
	if s.last < len(s.sets) && s.sets[s.last].pager == pager {
		return &s.sets[s.last]
	}
	empty := -1
	for i := range s.sets {
		if s.sets[i].pager == pager {
			s.last = i
			return &s.sets[i]
		}
		if empty < 0 && len(s.sets[i].words) == 0 {
			empty = i
		}
	}
	if empty < 0 {
		s.sets = append(s.sets, pageSet{})
		empty = len(s.sets) - 1
	}
	s.sets[empty].pager = pager
	s.last = empty
	return &s.sets[empty]
}

// Pages returns the number of distinct pages touched — the paper's Page
// Access metric (equivalent to the buffer-pool misses a query would incur
// against a cold pool large enough to hold its working set, which is how
// the metric was measured before accounting became per-query).
func (s *IOStats) Pages() int64 {
	if s == nil {
		return 0
	}
	return s.pages
}

// Reset clears the accumulator for reuse, keeping its storage: only the
// words the caller's pages set are cleared.
func (s *IOStats) Reset() {
	if s == nil {
		return
	}
	s.Reads = 0
	s.pages = 0
	for i := range s.sets {
		ps := &s.sets[i]
		for _, w := range ps.words {
			ps.bits[w] = 0
		}
		ps.words = ps.words[:0]
	}
}

// nextPagerID distinguishes pagers inside IOStats sets.
var nextPagerID atomic.Uint64

// poolEntry is one page frame. The reference bit starts CLEAR on install
// and is set only by a later hit, so the CLOCK sweep grants
// its second chance to re-referenced pages specifically: a sequential scan
// that touches each page once cannot displace the re-used working set
// behind it (scan resistance), and a fill evicts in insertion order like
// the LRU it replaced.
//
// pins counts the Pages handed out and not yet released. It only rises under
// the shard lock (shared or exclusive) while the entry is in the pool, and
// eviction reads it under the exclusive lock, so an entry seen unpinned
// there has no holder and can get none: its frame is free to reuse.
type poolEntry struct {
	id   int64
	data []byte
	ref  atomic.Bool  // CLOCK reference bit; set on re-touch, cleared by the sweep
	pins atomic.Int32 // outstanding Pages; a pinned entry is never evicted
}

// Page is a pinned view of one page, as Read and ReadRun return it. Bytes is
// the page content, read-only, and valid until Release; Release unpins the
// page so CLOCK may evict it and reuse its frame. Every Page must be released
// exactly once; the zero Page and a released one have no bytes.
type Page struct {
	e *poolEntry
}

// Bytes returns the page content. The slice aliases a pool frame: do not
// write it, and do not touch it after Release.
func (pg Page) Bytes() []byte {
	if pg.e == nil {
		return nil
	}
	return pg.e.data
}

// Release unpins the page and clears the handle, so releasing it again does
// nothing.
func (pg *Page) Release() {
	if pg.e != nil {
		pg.e.pins.Add(-1)
		pg.e = nil
	}
}

// ReleaseAll releases every page of a run ReadRun returned.
func ReleaseAll(pages []Page) {
	for i := range pages {
		pages[i].Release()
	}
}

// pin takes one pin on e for a caller that holds e's shard lock and found e
// in the pool.
func (e *poolEntry) pin() Page {
	e.ref.Store(true)
	e.pins.Add(1)
	return Page{e}
}

// shard is one stripe of the buffer pool: a page map, a CLOCK ring of at
// most cap entries, and the free list of evicted entries whose frames the
// next misses read into.
type shard struct {
	mu   sync.RWMutex
	pool map[int64]*poolEntry
	ring []*poolEntry
	hand int
	cap  int
	free []*poolEntry
}

// Pager reads one finished page file through its buffer pool. It is safe for
// concurrent use; see the package comment for the locking contract.
type Pager struct {
	f        *os.File
	id       uint64
	pageSize int
	numPages int64
	shards   []shard
	shardN   int64     // len(shards), for the id → shard map
	spanBufs sync.Pool // *[]byte of one shard block: multi-page span reads land here first

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
	p.spanBufs.New = func() any {
		b := make([]byte, p.pageSize<<shardBlockShift)
		return &b
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

// Resident reports whether the pool can hold the whole file, i.e. whether a
// page read costs a pool hit once the file has been read through once.
func (p *Pager) Resident() bool { return p.PoolPages() >= p.numPages }

// Pinned returns the number of pins held on pooled pages: zero whenever no
// caller holds an unreleased Page, so a leaked Page shows here. Pages handed
// out unpooled (the overflow of a shard whose entries are all pinned) are
// not counted; a leak of one costs nothing but its own memory.
func (p *Pager) Pinned() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for _, e := range sh.ring {
			n += int(e.pins.Load())
		}
		sh.mu.RUnlock()
	}
	return n
}

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

// Read returns page id, pinned, recording the access in io (nil discards
// the accounting). The Page's bytes alias a pool frame: callers must treat
// them as read-only, and they are valid until the caller releases the Page —
// after that the frame may hold another page.
func (p *Pager) Read(id int64, io *IOStats) (Page, error) {
	if id < 0 || id >= p.numPages {
		return Page{}, fmt.Errorf("%w: %d (have %d)", ErrPageOutOfRange, id, p.numPages)
	}
	p.accesses.Add(1)
	io.record(p.id, id)
	var out [1]Page
	if err := p.readChunk(id, id+1, out[:]); err != nil {
		return Page{}, err
	}
	return out[0], nil
}

// Note records page id in io as a page the caller's work touches — counted
// by io.Pages like a Read of it — without reading, pinning or counting
// anything: io.Reads and the shared counters stay as they were. A query that
// settles a verification from an in-memory copy of the page's contents notes
// the page, so its Page Access count is the verification sequence's
// footprint whichever copy answered.
func (p *Pager) Note(id int64, io *IOStats) { io.note(p.id, id) }

// readAt fills buf from the file starting at page first: every read the
// pager issues goes through here, so FileReads counts them all.
func (p *Pager) readAt(buf []byte, first int64) (int, error) {
	p.fileReads.Add(1)
	return p.f.ReadAt(buf, first*int64(p.pageSize))
}

// ReadRun returns the n consecutive pages starting at first, each pinned
// like a Read, appended to dst, recording one access per page in io. Cached
// pages come from the pool; the missing ones of each shard block are fetched
// with one contiguous file read per gap-free span, which is what makes a
// sub-partition's short sequential page run cost one I/O round trip instead
// of one per page. The caller releases the run (ReleaseAll); on error
// nothing stays pinned.
func (p *Pager) ReadRun(first int64, n int, dst []Page, io *IOStats) ([]Page, error) {
	if n <= 0 {
		return dst, nil
	}
	if first < 0 || first+int64(n) > p.numPages {
		return nil, fmt.Errorf("%w: run [%d,%d) (have %d)", ErrPageOutOfRange, first, first+int64(n), p.numPages)
	}
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, Page{})
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
			ReleaseAll(dst[base:])
			return nil, err
		}
		start = end
	}
	return dst, nil
}

// readChunk fills out with pages [start, end) of one shard block. The fast
// path (everything cached) finishes under the shared lock; otherwise the
// missing pages are read from the file in contiguous spans into free frames
// without any lock — misses in different (or even the same) shard overlap —
// and installed under the exclusive lock.
func (p *Pager) readChunk(start, end int64, out []Page) error {
	sh := p.shard(start)
	missing := 0
	sh.mu.RLock()
	for id := start; id < end; id++ {
		if e, ok := sh.pool[id]; ok {
			out[id-start] = e.pin()
		} else {
			missing++
		}
	}
	sh.mu.RUnlock()
	p.hits.Add(end - start - int64(missing))
	if missing == 0 {
		return nil
	}
	p.misses.Add(int64(missing))

	// fr[i] receives the i-th missing page of the block.
	var frameBuf [1 << shardBlockShift]*poolEntry
	fr := frameBuf[:missing]
	sh.frames(p, fr)
	next := 0
	for id := start; id < end; {
		if out[id-start].e != nil {
			id++
			continue
		}
		spanEnd := id + 1
		for spanEnd < end && out[spanEnd-start].e == nil {
			spanEnd++
		}
		if err := p.readSpan(id, fr[next:next+int(spanEnd-id)]); err != nil {
			sh.recycle(fr)
			return err
		}
		next += int(spanEnd - id)
		id = spanEnd
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	next = 0
	for id := start; id < end; id++ {
		if out[id-start].e == nil {
			out[id-start] = sh.install(p, id, fr[next])
			next++
		}
	}
	return nil
}

// readSpan fills the frames with the consecutive pages starting at first in
// ONE file read — FileReads counts a span once. A frame holds one page, so a
// longer span is read into a pooled block buffer and copied out.
func (p *Pager) readSpan(first int64, frames []*poolEntry) error {
	if len(frames) == 1 {
		if _, err := p.readAt(frames[0].data, first); err != nil {
			return fmt.Errorf("pager: read page %d: %w", first, err)
		}
		return nil
	}
	bp := p.spanBufs.Get().(*[]byte)
	defer p.spanBufs.Put(bp)
	buf := (*bp)[:len(frames)*p.pageSize]
	if _, err := p.readAt(buf, first); err != nil {
		return fmt.Errorf("pager: read pages [%d,%d): %w", first, first+int64(len(frames)), err)
	}
	for i, e := range frames {
		copy(e.data, buf[i*p.pageSize:])
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

// frames fills dst with entries a miss may read into: recycled ones from the
// free list first, fresh allocations for the rest.
func (sh *shard) frames(p *Pager, dst []*poolEntry) {
	n := 0
	sh.mu.Lock()
	for ; n < len(dst) && len(sh.free) > 0; n++ {
		last := len(sh.free) - 1
		dst[n], sh.free[last] = sh.free[last], nil
		sh.free = sh.free[:last]
	}
	sh.mu.Unlock()
	for ; n < len(dst); n++ {
		dst[n] = &poolEntry{data: make([]byte, p.pageSize)}
	}
}

// recycle returns frames a failed read did not install to the free list.
func (sh *shard) recycle(frames []*poolEntry) {
	sh.mu.Lock()
	sh.free = append(sh.free, frames...)
	sh.mu.Unlock()
}

// install makes e, just filled with page id, the pooled copy of that page and
// returns it pinned; the caller holds the shard's exclusive lock. When
// another goroutine installed the page meanwhile, the pooled copy wins — every
// reader shares one frame — and e goes back to the free list.
func (sh *shard) install(p *Pager, id int64, e *poolEntry) Page {
	if cur, ok := sh.pool[id]; ok {
		sh.free = append(sh.free, e)
		return cur.pin()
	}
	e.id = id
	e.ref.Store(false)
	e.pins.Store(1)
	sh.insert(p, e)
	return Page{e}
}

// insert adds e to the shard (whose lock the caller holds), evicting with
// the CLOCK sweep when the ring is full. The victim's entry goes to the free
// list. When every entry is pinned, e stays out of the pool: its holder
// keeps an unpooled frame, which the garbage collector takes after Release.
func (sh *shard) insert(p *Pager, e *poolEntry) {
	if len(sh.ring) < sh.cap {
		sh.ring = append(sh.ring, e)
		sh.pool[e.id] = e
		return
	}
	// CLOCK second chance over the unpinned entries: sweep from the hand,
	// clearing reference bits; the first unreferenced entry is the victim.
	// Concurrent hits can re-set bits behind the hand, so the sweep is
	// bounded: after two full passes the first unpinned entry under the hand
	// is taken regardless, and a third pass that meets none gives up.
	for step := 0; step < 3*len(sh.ring); step++ {
		cand := sh.ring[sh.hand]
		if cand.pins.Load() != 0 || (step < 2*len(sh.ring) && cand.ref.Swap(false)) {
			sh.hand = (sh.hand + 1) % len(sh.ring)
			continue
		}
		delete(sh.pool, cand.id)
		p.evictions.Add(1)
		sh.free = append(sh.free, cand)
		sh.ring[sh.hand] = e
		sh.pool[e.id] = e
		sh.hand = (sh.hand + 1) % len(sh.ring)
		return
	}
}

// DropPool empties the buffer pool, so subsequent reads count as misses.
// Benchmarks call this between queries to model a cold cache. Unpinned
// frames go to the free lists; a pinned page leaves the pool but stays valid
// for its holder until Release.
func (p *Pager) DropPool() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, e := range sh.ring {
			if e.pins.Load() == 0 {
				sh.free = append(sh.free, e)
			}
		}
		clear(sh.pool)
		clear(sh.ring)
		sh.ring = sh.ring[:0]
		sh.hand = 0
		sh.mu.Unlock()
	}
}

// Close closes the page file.
func (p *Pager) Close() error { return p.f.Close() }
