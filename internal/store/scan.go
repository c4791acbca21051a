package store

import (
	"context"
	"fmt"
	"sync"

	"promips/internal/pager"
	"promips/internal/par"
	"promips/internal/vec"
)

// scanChunkBytes is how much of the file one read of ScanRows fetches, and
// one write of a Writer puts (32 of the default 4 KiB pages): large enough
// that the syscall is noise next to decoding the ~100 vectors it holds,
// small enough to stay cache-resident while they are.
const scanChunkBytes = 128 << 10

// DotAt returns ⟨o,q⟩ for the stored vector at layout position posn,
// computed straight from its page's bytes (vec.DotBytes: zero-copy on
// little-endian hosts, fused decode otherwise) — the verification kernel of
// the query hot path. The page comes from a resident store's memory, or is
// read from the file into buf (grown to a page when too small and returned
// for reuse). Either way io and the pager's shared counters record one
// access.
func (s *Store) DotAt(posn int, q []float32, buf []byte, io *pager.IOStats) (float64, []byte, error) {
	if len(q) != s.dim {
		return 0, buf, fmt.Errorf("store: query dim %d, want %d", len(q), s.dim)
	}
	if posn < 0 || posn >= s.n {
		return 0, buf, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	var one [1][]byte
	pages, buf, err := s.pg.Read(s.firstData+int64(posn/s.perPage), 1, one[:0], buf, io)
	if err != nil {
		return 0, buf, err
	}
	return vec.DotBytes(pages[0][(posn%s.perPage)*vec.EncodedSize(s.dim):], q), buf, nil
}

// ScanRows is the store's one walk, on the worker pool (internal/par): it
// calls visit(first, rows) once for every chunk of scanChunkBytes, rows[i]
// holding the encoded vector at layout position first+i, read-only and
// valid until visit returns. The chunks are visited concurrently, in no
// fixed order; each is one RowsAt into a buffer of its task's own, and its
// reads are recorded in the pager's shared counters only: nothing is kept
// in a resident store's memory. ctx is checked before every chunk.
func (s *Store) ScanRows(ctx context.Context, visit func(first int, rows [][]byte)) error {
	bufs := sync.Pool{New: func() any { return new(chunkBuf) }}
	chunkRows := s.chunkRows()
	return par.Do(ctx, (s.n+chunkRows-1)/chunkRows, func(c int) error {
		cb := bufs.Get().(*chunkBuf)
		defer bufs.Put(cb)
		first := c * chunkRows
		var err error
		if cb.buf, cb.rows, err = s.RowsAt(first, min(chunkRows, s.n-first), cb.buf, cb.rows, nil); err != nil {
			return err
		}
		visit(first, cb.rows)
		return nil
	})
}

// chunkBuf is one ScanRows task's read buffer and row list.
type chunkBuf struct {
	buf  []byte
	rows [][]byte
}

// chunkRows is how many rows one chunk of ScanRows holds, the last excepted.
func (s *Store) chunkRows() int { return max(1, scanChunkBytes/s.pg.PageSize()) * s.perPage }

// RowsAt sets rows (reusing the slice) to the encoded vectors at the n
// layout positions from first on, read-only, with one pager.ReadDirect of
// the pages they span into buf, grown when too small and returned for
// reuse: a run of rows is read from the file whatever the store's
// residency, and nothing is kept. The page reads are recorded in io (nil
// discards the accounting); the rows stay valid until buf is reused.
func (s *Store) RowsAt(first, n int, buf []byte, rows [][]byte, io *pager.IOStats) ([]byte, [][]byte, error) {
	if first < 0 || n < 0 || first+n > s.n {
		return buf, rows, fmt.Errorf("store: positions [%d,%d) out of range [0,%d)", first, first+n, s.n)
	}
	rows = rows[:0]
	if n == 0 {
		return buf, rows, nil
	}
	page, last := first/s.perPage, (first+n-1)/s.perPage
	data, err := s.pg.ReadDirect(s.firstData+int64(page), last-page+1, buf, io)
	if err != nil {
		return data, rows, err
	}
	buf = data
	pageSize, rowSize := s.pg.PageSize(), vec.EncodedSize(s.dim)
	for pos := first; pos < first+n; pos++ {
		off := (pos/s.perPage-page)*pageSize + pos%s.perPage*rowSize
		rows = append(rows, data[off:off+rowSize:off+rowSize])
	}
	return buf, rows, nil
}
