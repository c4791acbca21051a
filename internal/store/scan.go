package store

import (
	"context"
	"fmt"
	"sync"

	"promips/internal/pager"
	"promips/internal/par"
	"promips/internal/vec"
)

// scanChunkBytes is how much of the file one read of ScanRows fetches (32
// of the default 4 KiB pages): large enough that the read syscall is noise
// next to decoding the ~100 vectors it returns, small enough to stay
// cache-resident while they are.
const scanChunkBytes = 128 << 10

// DotAt returns ⟨o,q⟩ for the stored vector at layout position posn,
// computed straight from its page's bytes (vec.DotBytes: zero-copy on
// little-endian hosts, fused decode otherwise) — the verification kernel of
// the query hot path. The page is read through the buffer pool exactly when
// the pool holds the whole store (pager.Resident): pinned and released
// before DotAt returns, so no pin outlives the call, and a pool hit once
// the file has been read through once. Otherwise it is read straight from
// the file into buf (grown to a page when too small and returned for
// reuse), so the pool is neither read nor filled: a cold store's reads are
// verifications scattered over a store many times the pool — a trace of
// one shard's verification reads gave CLOCK a 0.35 hit ratio on 1,024
// frames and Belady's OPT 0.60 — so pooling them would cost an install and
// an eviction per page, keep the pool full of pages no query wants next,
// and buy few hits. Bypassing is safe because a Store only exists over a
// finished, immutable page file, so the file is the truth. Either way io
// and the pager's shared counters record one access.
func (s *Store) DotAt(posn int, q []float32, buf []byte, io *pager.IOStats) (float64, []byte, error) {
	if len(q) != s.dim {
		return 0, buf, fmt.Errorf("store: query dim %d, want %d", len(q), s.dim)
	}
	if posn < 0 || posn >= s.n {
		return 0, buf, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	pid, off := s.firstData+int64(posn/s.perPage), (posn%s.perPage)*vec.EncodedSize(s.dim)
	if s.pg.Resident() {
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

// ScanRows is the store's one walk, on the worker pool (internal/par): it
// calls visit(first, rows) once for every chunk of scanChunkBytes, rows[i]
// holding the encoded vector at layout position first+i, valid until visit
// returns. The chunks are visited concurrently, in no fixed order; each is
// read straight from the file into a buffer of its task's own, whatever the
// pool's size — the pool is neither read nor filled — and its reads are
// recorded in the pager's shared counters only. ctx is checked before every
// chunk.
func (s *Store) ScanRows(ctx context.Context, visit func(first int, rows [][]byte)) error {
	bufs := sync.Pool{New: func() any { return new(chunkBuf) }}
	return par.Do(ctx, s.chunks(), func(c int) error {
		cb := bufs.Get().(*chunkBuf)
		defer bufs.Put(cb)
		var err error
		if cb.buf, cb.rows, err = s.readChunk(c, cb.buf, cb.rows); err != nil {
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

// chunkPages is how many data pages one chunk spans; chunk c holds the rows
// from position c·chunkRows on.
func (s *Store) chunkPages() int { return max(1, scanChunkBytes/s.pg.PageSize()) }

// chunkRows is how many rows one chunk holds, the last excepted.
func (s *Store) chunkRows() int { return s.chunkPages() * s.perPage }

// chunks is how many chunks the walk reads.
func (s *Store) chunks() int {
	dataPages := (s.n + s.perPage - 1) / s.perPage
	return (dataPages + s.chunkPages() - 1) / s.chunkPages()
}

// readChunk reads chunk c straight from the file into buf, grown when too
// small and returned for reuse, and sets rows to its rows (reusing the
// slice). The reads are recorded in the pager's shared counters only.
func (s *Store) readChunk(c int, buf []byte, rows [][]byte) ([]byte, [][]byte, error) {
	pageSize, chunkPages := s.pg.PageSize(), s.chunkPages()
	page := c * chunkPages
	dataPages := (s.n + s.perPage - 1) / s.perPage
	first, n := s.firstData+int64(page), min(chunkPages, dataPages-page)
	if cap(buf) < chunkPages*pageSize {
		buf = make([]byte, chunkPages*pageSize)
	}
	chunk := buf[:n*pageSize]
	if err := s.pg.ReadDirect(first, chunk, nil); err != nil {
		return buf, rows, err
	}
	rows, rowSize := rows[:0], vec.EncodedSize(s.dim)
	for i := range n {
		data, pos := chunk[i*pageSize:], (page+i)*s.perPage
		for slot := 0; slot < s.perPage && pos+slot < s.n; slot++ {
			rows = append(rows, data[slot*rowSize:(slot+1)*rowSize])
		}
	}
	return buf, rows, nil
}
