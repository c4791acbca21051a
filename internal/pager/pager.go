// Package pager provides write-once page files: a Writer creates a file and
// puts its pages straight into it, Finish makes the file durable and hands it
// to a Pager, and nothing writes the file again. Every disk-resident
// structure in this repository (the iDistance projected-data pages, the
// original-vector store, QALSH's hash tables, Range-LSH's sequential
// partitions, PQ's inverted lists) is built through a Writer and read
// through a Pager, so the paper's "Page Access" metric is measured
// identically for every method: one logical access per page touched.
//
// A Pager reads its file one of two ways, fixed when it opens. A file of at
// most Options.PoolSize pages is resident: each page read is copied into
// memory the first time, kept for the Pager's life and served from there
// afterwards. A larger file is read straight from disk: every read fills the
// caller's buffer with one ReadAt. Nothing is ever evicted, so no page can
// change under a reader and there is nothing to release: a kept page lives
// as long as the Pager, and a disk read's bytes are the caller's own buffer.
// ReadDirect reads from disk whatever the residency, for a walk that reads
// every page once and must not fill memory with them.
//
// Concurrency. A Pager is safe for concurrent use without locks: a page is
// kept by one compare-and-swap, and the counters of Stats are atomics (a
// Writer belongs to the one goroutine building the file). Per-caller
// accounting goes through IOStats: each query owns an accumulator and
// threads it through every Read, so no query ever needs to reset the shared
// counters to measure itself.
package pager

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"promips/internal/errs"
)

// DefaultPageSize matches the paper's 4KB pages (64KB is used for P53).
const DefaultPageSize = 4096

// ErrPageOutOfRange is returned when a page id does not exist in the file.
var ErrPageOutOfRange = errors.New("pager: page id out of range")

// Stats counts I/O activity. Accesses is the number of logical page reads
// issued through the pager; Hits the pages among them served from a
// resident file's memory; Misses the pages read from the file; FileReads
// the read calls issued against the file to serve the misses (one per Read
// or ReadDirect, however many pages it spans).
type Stats struct {
	Accesses  int64
	Hits      int64
	Misses    int64
	FileReads int64
}

// Sub returns s - t component-wise; callers snapshot Stats around a query to
// obtain its per-query page accesses.
func (s Stats) Sub(t Stats) Stats {
	return Stats{s.Accesses - t.Accesses, s.Hits - t.Hits, s.Misses - t.Misses, s.FileReads - t.FileReads}
}

// Add returns s + t component-wise, for aggregating counters across the
// pagers of one index.
func (s Stats) Add(t Stats) Stats {
	return Stats{s.Accesses + t.Accesses, s.Hits + t.Hits, s.Misses + t.Misses, s.FileReads + t.FileReads}
}

// HitRatio returns Hits/Accesses, or 0 when no accesses were recorded.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// nextPagerID distinguishes pagers inside IOStats sets.
var nextPagerID atomic.Uint64

// Pager reads one finished page file. It is safe for concurrent use; see the
// package comment.
type Pager struct {
	f        *os.File
	id       uint64
	pageSize int
	numPages int64
	kept     []atomic.Pointer[[]byte] // a resident file's pages read so far; nil when not resident

	accesses  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	fileReads atomic.Int64
}

// Options configures a Pager.
type Options struct {
	PageSize int // 0 means DefaultPageSize; Finish uses the Writer's instead
	// PoolSize is the memory budget in pages: a file of at most this many
	// pages keeps every page it reads in memory, a larger one is read from
	// disk. 0 means 1024.
	PoolSize int
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
	p := &Pager{f: f, id: nextPagerID.Add(1), pageSize: opts.PageSize, numPages: numPages}
	if numPages <= int64(opts.PoolSize) {
		p.kept = make([]atomic.Pointer[[]byte], numPages)
	}
	return p
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of pages in the file.
func (p *Pager) NumPages() int64 { return p.numPages }

// SizeBytes returns the on-disk size of the page file.
func (p *Pager) SizeBytes() int64 { return p.numPages * int64(p.pageSize) }

// Resident reports whether the file keeps the pages it reads in memory,
// i.e. whether it has at most Options.PoolSize pages.
func (p *Pager) Resident() bool { return p.kept != nil }

// Stats returns a snapshot of the shared I/O counters. Per-query accounting
// should use IOStats instead; the shared counters exist for whole-run
// aggregates and diagnostics.
func (p *Pager) Stats() Stats {
	return Stats{p.accesses.Load(), p.hits.Load(), p.misses.Load(), p.fileReads.Load()}
}

// Read appends the n consecutive pages from first on to pages, read-only,
// recording each in io (nil discards the accounting) and in the shared
// counters. A resident file serves the run from memory when it keeps every
// page of it (a hit per page). Otherwise the run is read into buf, grown to
// n pages when too small, with one ReadAt (a miss per page), and a resident
// file keeps a copy of each page it did not have and appends that. An
// appended page stays valid as long as the Pager when it is kept, and until
// the caller reuses buf when it is not; buf is returned for reuse.
func (p *Pager) Read(first int64, n int, pages [][]byte, buf []byte, io *IOStats) ([][]byte, []byte, error) {
	if err := p.access(first, n, io); err != nil {
		return pages, buf, err
	}
	base := len(pages)
	for i := int64(0); p.kept != nil && i < int64(n); i++ {
		kp := p.kept[first+i].Load()
		if kp == nil {
			break
		}
		pages = append(pages, *kp)
	}
	if len(pages)-base == n {
		p.hits.Add(int64(n))
		return pages, buf, nil
	}
	pages = pages[:base]
	var err error
	if buf, err = p.readAt(first, n, buf); err != nil {
		return pages, buf, err
	}
	for i := range int64(n) {
		pg := buf[i*int64(p.pageSize) : (i+1)*int64(p.pageSize) : (i+1)*int64(p.pageSize)]
		if p.kept != nil {
			pg = p.keep(first+i, pg)
		}
		pages = append(pages, pg)
	}
	return pages, buf, nil
}

// keep returns the copy of page id a resident file keeps, making a copy of
// pg, just read from the file, that copy when there is none yet. Two
// readers may both copy a page; the first copy installed is the one both
// return.
func (p *Pager) keep(id int64, pg []byte) []byte {
	slot := &p.kept[id]
	if kp := slot.Load(); kp != nil {
		return *kp
	}
	if c := bytes.Clone(pg); slot.CompareAndSwap(nil, &c) {
		return c
	}
	return *slot.Load()
}

// ReadDirect reads the n consecutive pages from first on straight from the
// file into buf, grown to n pages when too small and returned for reuse,
// with one ReadAt (a miss per page), whatever the file's residency: nothing
// is kept. It is the read of a walk that touches every page once
// (store.ScanRows), which would otherwise fill a resident file's memory
// with pages no query wants. The pages are recorded in io and in the shared
// counters.
func (p *Pager) ReadDirect(first int64, n int, buf []byte, io *IOStats) ([]byte, error) {
	if err := p.access(first, n, io); err != nil {
		return buf, err
	}
	return p.readAt(first, n, buf)
}

// access checks the run [first, first+n) and records its pages in io and
// in the shared access count.
func (p *Pager) access(first int64, n int, io *IOStats) error {
	if first < 0 || n < 0 || first+int64(n) > p.numPages {
		return fmt.Errorf("%w: run [%d,%d) (have %d)", ErrPageOutOfRange, first, first+int64(n), p.numPages)
	}
	for i := range int64(n) {
		io.record(p.id, first+i)
	}
	p.accesses.Add(int64(n))
	return nil
}

// readAt reads the run into buf, grown when too small, with one ReadAt and
// returns its n pages: every read the pager issues goes through here, so
// Misses and FileReads count them all.
func (p *Pager) readAt(first int64, n int, buf []byte) ([]byte, error) {
	p.misses.Add(int64(n))
	p.fileReads.Add(1)
	size := n * p.pageSize
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	if _, err := p.f.ReadAt(buf[:size], first*int64(p.pageSize)); err != nil {
		return buf, fmt.Errorf("pager: read pages [%d,%d): %w", first, first+int64(n), err)
	}
	return buf[:size], nil
}

// Note records page id in io as a page the caller's work touches — counted
// by io.Pages like a Read of it — without reading or counting anything else:
// io.Reads and the shared counters stay as they were. A query that settles a
// verification from an in-memory copy of the page's contents notes the page,
// so its Page Access count is the verification sequence's footprint
// whichever copy answered.
func (p *Pager) Note(id int64, io *IOStats) { io.note(p.id, id) }

// Close closes the page file.
func (p *Pager) Close() error { return p.f.Close() }
