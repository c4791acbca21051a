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
// the query hot path. The page is read through the buffer pool and released
// before DotAt returns, so no pin outlives the call.
func (s *Store) DotAt(posn int, q []float32, io *pager.IOStats) (float64, error) {
	if len(q) != s.dim {
		return 0, fmt.Errorf("store: query dim %d, want %d", len(q), s.dim)
	}
	if posn < 0 || posn >= s.n {
		return 0, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	page, err := s.pg.Read(s.firstData+int64(posn/s.perPage), io)
	if err != nil {
		return 0, err
	}
	defer page.Release()
	off := (posn % s.perPage) * vec.EncodedSize(s.dim)
	return vec.DotBytes(page.Bytes()[off:], q), nil
}

// ScanDot is the sequential scorer: one walk of the whole store in layout
// order, calling emit(pos, ⟨o_pos,q⟩) — ascending pos — for every position
// keep accepts. Each inner product is bit-identical to DotAt of that
// position (eight rows per pass of vec.Dot8Bytes).
//
// When the file is larger than the buffer pool the walk reads it in
// scanChunkBytes pieces straight into buf (grown when too small and returned
// for reuse), bypassing the pool: a scan touches every page once, so pooling
// them would cost an install and an eviction per page and leave the pool
// holding nothing the next query wants. That is safe because a Store only
// exists over a finished, immutable page file, so the file is the truth. A
// file that fits in the pool (pager.Resident) is walked through it instead,
// zero-copy, one pinned chunk at a time: there is nothing to protect, and its
// resident pages need no read at all. Either way io and the pager's shared
// counters record every page as an access. ctx is checked before every chunk.
func (s *Store) ScanDot(ctx context.Context, q []float32, buf []byte, io *pager.IOStats,
	keep func(pos int) bool, emit func(pos int, ip float64)) ([]byte, error) {
	if len(q) != s.dim {
		return buf, fmt.Errorf("store: query dim %d, want %d", len(q), s.dim)
	}
	pooled := s.pg.Resident()
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
