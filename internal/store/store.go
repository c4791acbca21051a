// Package store provides a disk-resident vector store: fixed-dimension
// float32 vectors laid out in a caller-chosen order so that points of the
// same iDistance sub-partition (or the same LSH norm-partition) sit on
// adjacent pages, and addressed by that layout position alone — the caller
// keeps the order, so the store holds no id of its own. Candidate
// verification — the dominant I/O of every MIPS method in the paper — reads
// original vectors through this store, so its page accesses are accounted
// by the shared pager.
//
// File layout (page-aligned):
//
//	page 0:            header (magic "PVS2", dim, n, perPage)
//	pages 1..:         vector data, perPage vectors per page
//
// A "PVS1" file, the earlier format, has ⌈n/(PageSize/4)⌉ pages of an
// id → position table between its header and its data; Open skips them.
package store

import (
	"encoding/binary"
	"fmt"

	"promips/internal/errs"
	"promips/internal/pager"
	"promips/internal/vec"
)

const (
	storeMagic  = uint32(0x50565332) // "PVS2"
	legacyMagic = uint32(0x50565331) // "PVS1": an id → position table precedes the data
	headerBytes = 16
)

// Store reads vectors by layout position.
type Store struct {
	pg        *pager.Pager
	dim       int
	n         int
	perPage   int
	firstData int64 // page of position 0: 1, or past a PVS1 file's table
}

// Writer builds a Store by appending vectors in layout order. It fills
// scanChunkBytes of pages before it writes them, so a store costs one write
// per chunk rather than one per page.
type Writer struct {
	st    *Store // pg is set by Finalize
	pw    *pager.Writer
	opts  pager.Options
	next  int
	buf   []byte // the pages from first on, allocated and not yet written
	first int64
}

// Create starts a new store file for n vectors of the given dimension.
// A vector must fit in one page: callers choose the page size accordingly
// (the paper uses 64KB pages for the 5408-dimensional P53 dataset for
// exactly this reason).
func Create(path string, dim, n int, opts pager.Options) (*Writer, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = pager.DefaultPageSize
	}
	if dim <= 0 || n < 0 {
		return nil, fmt.Errorf("store: invalid dim=%d n=%d", dim, n)
	}
	perPage := opts.PageSize / vec.EncodedSize(dim)
	if perPage == 0 {
		return nil, fmt.Errorf("store: vector of dim %d (%d bytes) exceeds page size %d; use a larger page size",
			dim, vec.EncodedSize(dim), opts.PageSize)
	}
	pw, err := pager.Create(path, opts.PageSize)
	if err != nil {
		return nil, err
	}
	pw.Alloc() // the header, written by Finalize
	st := &Store{dim: dim, n: n, perPage: perPage, firstData: 1}
	buf := make([]byte, 0, max(1, scanChunkBytes/opts.PageSize)*opts.PageSize)
	return &Writer{st: st, pw: pw, opts: opts, buf: buf, first: 1}, nil
}

// Append writes v at the next layout position.
func (w *Writer) Append(v []float32) error {
	st := w.st
	if w.next >= st.n {
		return fmt.Errorf("store: appended more than the declared %d vectors", st.n)
	}
	if len(v) != st.dim {
		return fmt.Errorf("store: vector dim %d, want %d", len(v), st.dim)
	}
	slot, pageSize := w.next%st.perPage, w.pw.PageSize()
	if slot == 0 {
		if len(w.buf) == cap(w.buf) {
			if err := w.flush(); err != nil {
				return err
			}
		}
		w.pw.Alloc()
		w.buf = w.buf[:len(w.buf)+pageSize]
		clear(w.buf[len(w.buf)-pageSize:])
	}
	vec.Encode(w.buf[len(w.buf)-pageSize+slot*vec.EncodedSize(st.dim):], v)
	w.next++
	return nil
}

// Close abandons an unfinished store and releases its page file. After
// Finalize the file belongs to the Store and Close does nothing.
func (w *Writer) Close() error { return w.pw.Close() }

// flush writes the buffered pages and empties the buffer.
func (w *Writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.pw.Write(w.first, w.buf); err != nil {
		return err
	}
	w.first += int64(len(w.buf) / w.pw.PageSize())
	w.buf = w.buf[:0]
	return nil
}

// Finalize writes the header and returns the readable Store. The Writer
// must have appended exactly n vectors.
func (w *Writer) Finalize() (*Store, error) {
	st := w.st
	if w.next != st.n {
		return nil, fmt.Errorf("store: appended %d of %d vectors", w.next, st.n)
	}
	if err := w.flush(); err != nil {
		return nil, err
	}
	header := make([]byte, w.pw.PageSize())
	binary.LittleEndian.PutUint32(header, storeMagic)
	binary.LittleEndian.PutUint32(header[4:], uint32(st.dim))
	binary.LittleEndian.PutUint32(header[8:], uint32(st.n))
	binary.LittleEndian.PutUint32(header[12:], uint32(st.perPage))
	if err := w.pw.Write(0, header); err != nil {
		return nil, err
	}
	var err error
	if st.pg, err = w.pw.Finish(w.opts); err != nil {
		return nil, err
	}
	return st, nil
}

// Open loads an existing store file. A header that does not describe a
// store this file holds — a dimension of zero, a row count per page other
// than the one the dimension gives, fewer data pages than n needs — is
// ErrCorruptIndex, so no read of a position in [0, Len) can fail on it.
func Open(path string, opts pager.Options) (*Store, error) {
	pg, err := pager.Open(path, opts)
	if err != nil {
		return nil, err
	}
	st, err := readHeader(pg)
	if err != nil {
		pg.Close()
		return nil, err
	}
	return st, nil
}

// readHeader decodes and checks page 0 of pg. The page arithmetic is int64:
// the header's fields are uint32 and a 32-bit int cannot hold every one.
func readHeader(pg *pager.Pager) (*Store, error) {
	pages, _, err := pg.Read(0, 1, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	header := pages[0]
	if len(header) < headerBytes {
		return nil, fmt.Errorf("store: %d-byte page holds no header: %w", len(header), errs.ErrCorruptIndex)
	}
	magic := binary.LittleEndian.Uint32(header)
	dim := int64(binary.LittleEndian.Uint32(header[4:]))
	n := int64(binary.LittleEndian.Uint32(header[8:]))
	perPage := int64(binary.LittleEndian.Uint32(header[12:]))
	pageSize := int64(pg.PageSize())
	firstData := int64(1)
	switch magic {
	case storeMagic:
	case legacyMagic:
		// The table is the inverse of a layout its index records itself, so
		// it is never read.
		idsPerPage := pageSize / 4
		firstData += (n + idsPerPage - 1) / idsPerPage
	default:
		return nil, fmt.Errorf("store: bad magic: %w", errs.ErrCorruptIndex)
	}
	if dim < 1 || dim > pageSize || perPage < 1 || perPage != pageSize/int64(vec.EncodedSize(int(dim))) {
		return nil, fmt.Errorf("store: header dim=%d perPage=%d over %d-byte pages: %w", dim, perPage, pageSize, errs.ErrCorruptIndex)
	}
	if need := firstData + (n+perPage-1)/perPage; need > pg.NumPages() {
		return nil, fmt.Errorf("store: %d vectors need %d pages, file has %d: %w", n, need, pg.NumPages(), errs.ErrCorruptIndex)
	}
	return &Store{pg: pg, dim: int(dim), n: int(n), perPage: int(perPage), firstData: firstData}, nil
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of vectors.
func (s *Store) Len() int { return s.n }

// Pager exposes the underlying pager for I/O accounting.
func (s *Store) Pager() *pager.Pager { return s.pg }

// SizeBytes returns the on-disk size of the store file.
func (s *Store) SizeBytes() int64 { return s.pg.SizeBytes() }

// VectorAt reads the vector at a layout position (one page access). dst is
// reused when large enough. The page read is recorded in io (nil discards
// the accounting).
func (s *Store) VectorAt(posn int, dst []float32, io *pager.IOStats) ([]float32, error) {
	if posn < 0 || posn >= s.n {
		return nil, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	var one [1][]byte
	pages, _, err := s.pg.Read(s.firstData+int64(posn/s.perPage), 1, one[:0], nil, io)
	if err != nil {
		return nil, err
	}
	return vec.Decode(pages[0][(posn%s.perPage)*vec.EncodedSize(s.dim):], s.dim, dst), nil
}

// NoteAt records the page of layout position posn in io (pager.Note): the
// page is counted among the query's accesses, and nothing is read.
func (s *Store) NoteAt(posn int, io *pager.IOStats) {
	s.pg.Note(s.firstData+int64(posn/s.perPage), io)
}

// Close closes the file.
func (s *Store) Close() error { return s.pg.Close() }
