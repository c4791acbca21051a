package store

import (
	"context"
	"fmt"
	"sync"

	"promips/internal/pager"
	"promips/internal/par"
	"promips/internal/vec"
)

// scanChunkBytes is how much of the file one read of ScanDot fetches (32 of
// the default 4 KiB pages): large enough that the read syscall is noise next
// to scoring the ~100 vectors it returns, small enough to stay cache-resident
// while they are scored.
const scanChunkBytes = 128 << 10

// DotAt returns ⟨o,q⟩ for the stored vector at layout position posn,
// computed straight from its page's bytes (vec.DotBytes: zero-copy on
// little-endian hosts, fused decode otherwise) — the verification kernel of
// the query hot path. The page is read by the store's one rule (pooled): on
// a resident store through the buffer pool, pinned and released before
// DotAt returns, so no pin outlives the call; on a cold one straight from
// the file into buf (grown to a page when too small and returned for reuse,
// as ScanDot's), so the pool is neither read nor filled. Either way io and
// the pager's shared counters record one access.
func (s *Store) DotAt(posn int, q []float32, buf []byte, io *pager.IOStats) (float64, []byte, error) {
	if len(q) != s.dim {
		return 0, buf, fmt.Errorf("store: query dim %d, want %d", len(q), s.dim)
	}
	if posn < 0 || posn >= s.n {
		return 0, buf, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	pid, off := s.firstData+int64(posn/s.perPage), (posn%s.perPage)*vec.EncodedSize(s.dim)
	if s.pooled() {
		page, err := s.pg.Read(pid, io)
		if err != nil {
			return 0, buf, err
		}
		defer page.Release()
		return vec.DotBytes(page.Bytes()[off:], q), buf, nil
	}
	pageSize := s.pg.PageSize()
	if cap(buf) < pageSize {
		buf = make([]byte, pageSize)
	}
	if err := s.pg.ReadDirect(pid, buf[:pageSize], io); err != nil {
		return 0, buf, err
	}
	return vec.DotBytes(buf[off:pageSize], q), buf, nil
}

// pooled is the rule every query-time read of the store follows — DotAt's
// page and each chunk of ScanDot: through the buffer pool exactly when the
// pool holds the whole store (pager.Resident), and straight from the file
// otherwise (pager.ReadDirect). On a resident store a read is a pool hit once
// the file has been read through once. On a cold one the reads are a scan's
// pages, each touched once, and verifications scattered over a store many
// times the pool — a trace of one shard's verification reads gave CLOCK a
// 0.35 hit ratio on 1,024 frames and Belady's OPT 0.60 — so pooling them
// costs an install and an eviction per page, keeps the pool full of pages
// no query wants next, and buys few hits. Bypassing is safe because a Store
// only exists over a finished, immutable page file, so the file is the
// truth.
func (s *Store) pooled() bool { return s.pg.Resident() }

// ScanDot is the sequential scorer: one walk of the whole store in layout
// order, calling emit(pos, ⟨o_pos,q⟩) — ascending pos — for every position
// keep accepts. Each inner product is bit-identical to DotAt of that
// position (eight rows per pass of vec.Dot8Bytes).
//
// The walk reads the file in scanChunkBytes pieces by the rule DotAt reads
// by (pooled): a resident store through the pool, zero-copy, one pinned
// chunk at a time — its resident pages need no read at all; a cold one
// straight into buf (grown when too small and returned for reuse), so the
// scan leaves the pool as it found it. Either way io and the pager's shared
// counters record every page as an access. ctx is checked before every
// chunk.
func (s *Store) ScanDot(ctx context.Context, q []float32, buf []byte, io *pager.IOStats,
	keep func(pos int) bool, emit func(pos int, ip float64)) ([]byte, error) {
	if len(q) != s.dim {
		return buf, fmt.Errorf("store: query dim %d, want %d", len(q), s.dim)
	}
	pooled := s.pooled()
	chunk := make([][]byte, 0, s.chunkRows())
	var run []pager.Page // the pool pages' pins, released once the chunk is scored
	var rows [8][]byte   // kept rows awaiting one Dot8Bytes, and their positions
	var at [8]int
	var ips [8]float64
	for c := range s.chunks() {
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		var err error
		if buf, chunk, run, err = s.readChunk(c, pooled, buf, io, chunk, run); err != nil {
			return buf, err
		}
		first, nb := c*s.chunkRows(), 0
		for i, row := range chunk {
			if !keep(first + i) {
				continue
			}
			rows[nb], at[nb] = row, first+i
			if nb++; nb == len(rows) {
				vec.Dot8Bytes(&rows, q, &ips)
				for j, ip := range ips {
					emit(at[j], ip)
				}
				nb = 0
			}
		}
		// The next read overwrites buf, or the chunk's pages are released:
		// score the stragglers now.
		for i := 0; i < nb; i++ {
			emit(at[i], vec.DotBytes(rows[i], q))
		}
		pager.ReleaseAll(run)
	}
	return buf, nil
}

// ScanRows is ScanDot's walk without the scoring, on the worker pool
// (internal/par): it calls visit(first, rows) once for every chunk of the
// store, rows[i] holding the encoded vector at layout position first+i,
// valid until visit returns. The chunks are visited concurrently, in no
// fixed order; each is read straight from the file into a buffer of its
// task's own, whatever the pool's size — the pool is neither read nor
// filled — and its reads are recorded in the pager's shared counters only.
// ctx is checked before every chunk.
func (s *Store) ScanRows(ctx context.Context, visit func(first int, rows [][]byte)) error {
	bufs := sync.Pool{New: func() any { return new(chunkBuf) }}
	return par.Do(ctx, s.chunks(), func(c int) error {
		cb := bufs.Get().(*chunkBuf)
		defer bufs.Put(cb)
		var err error
		if cb.buf, cb.rows, _, err = s.readChunk(c, false, cb.buf, nil, cb.rows, nil); err != nil {
			return err
		}
		visit(c*s.chunkRows(), cb.rows)
		return nil
	})
}

// chunkBuf is one ScanRows task's read buffer and row list.
type chunkBuf struct {
	buf  []byte
	rows [][]byte
}

// A walk of the store — ScanDot's, ScanRows' — reads it in chunks of
// scanChunkBytes, chunk c holding the rows from position c·chunkRows on.

// chunkPages is how many data pages one chunk spans.
func (s *Store) chunkPages() int { return max(1, scanChunkBytes/s.pg.PageSize()) }

// chunkRows is how many rows one chunk of a walk holds, the last excepted.
func (s *Store) chunkRows() int { return s.chunkPages() * s.perPage }

// chunks is how many chunks a walk of the store reads.
func (s *Store) chunks() int {
	dataPages := (s.n + s.perPage - 1) / s.perPage
	return (dataPages + s.chunkPages() - 1) / s.chunkPages()
}

// readChunk reads chunk c of a walk and sets rows to its rows (reusing the
// slice). pooled reads the pages through the buffer pool and returns their
// pins in run (reused likewise; the caller releases them); otherwise the
// pages are read straight into buf, grown when too small and returned for
// reuse. On error nothing stays pinned.
func (s *Store) readChunk(c int, pooled bool, buf []byte, io *pager.IOStats, rows [][]byte, run []pager.Page) ([]byte, [][]byte, []pager.Page, error) {
	pageSize, chunkPages := s.pg.PageSize(), s.chunkPages()
	page := c * chunkPages
	dataPages := (s.n + s.perPage - 1) / s.perPage
	first, n := s.firstData+int64(page), min(chunkPages, dataPages-page)
	rows, run = rows[:0], run[:0]
	addRows := func(pos int, data []byte) {
		rowSize := vec.EncodedSize(s.dim)
		for slot := 0; slot < s.perPage && pos+slot < s.n; slot++ {
			rows = append(rows, data[slot*rowSize:(slot+1)*rowSize])
		}
	}
	pos := page * s.perPage
	if pooled {
		var err error
		if run, err = s.pg.ReadRun(first, n, run, io); err != nil {
			return buf, rows, run[:0], err
		}
		for i, pg := range run {
			addRows(pos+i*s.perPage, pg.Bytes())
		}
		return buf, rows, run, nil
	}
	if cap(buf) < chunkPages*pageSize {
		buf = make([]byte, chunkPages*pageSize)
	}
	chunk := buf[:n*pageSize]
	if err := s.pg.ReadDirect(first, chunk, io); err != nil {
		return buf, rows, run, err
	}
	for i := 0; i < n; i++ {
		addRows(pos+i*s.perPage, chunk[i*pageSize:])
	}
	return buf, rows, run, nil
}
