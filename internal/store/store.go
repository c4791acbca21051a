// Package store provides a disk-resident vector store: fixed-dimension
// float32 vectors identified by uint32 ids, laid out in a caller-chosen
// order so that points of the same iDistance sub-partition (or the same
// LSH norm-partition) sit on adjacent pages. Candidate verification — the
// dominant I/O of every MIPS method in the paper — reads original vectors
// through this store, so its page accesses are accounted by the shared
// pager.
//
// File layout (page-aligned):
//
//	page 0:            header (magic, dim, n, perPage)
//	pages 1..T:        id → position table (uint32 per id)
//	pages T+1..:       vector data, perPage vectors per page
package store

import (
	"encoding/binary"
	"fmt"

	"promips/internal/errs"
	"promips/internal/pager"
	"promips/internal/vec"
)

const storeMagic = uint32(0x50565331) // "PVS1"

// Store reads vectors by id or by layout position.
type Store struct {
	pg        *pager.Pager
	dim       int
	n         int
	perPage   int
	tablePgs  int
	pos       []uint32 // id -> layout position (kept in memory, persisted in table pages)
	firstData int64
}

// Writer builds a Store by appending vectors in layout order.
type Writer struct {
	st   *Store // pg is set by Finalize
	pw   *pager.Writer
	opts pager.Options
	next int
	page []byte
	cur  int64
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
	idsPerPage := opts.PageSize / 4
	tablePgs := (n + idsPerPage - 1) / idsPerPage
	// Header + table pages, written by Finalize.
	for i := 0; i < 1+tablePgs; i++ {
		pw.Alloc()
	}
	st := &Store{
		dim:       dim,
		n:         n,
		perPage:   perPage,
		tablePgs:  tablePgs,
		pos:       make([]uint32, n),
		firstData: int64(1 + tablePgs),
	}
	return &Writer{st: st, pw: pw, opts: opts, page: make([]byte, opts.PageSize), cur: -1}, nil
}

// Append writes the vector for id at the next layout position.
func (w *Writer) Append(id uint32, v []float32) error {
	st := w.st
	if w.next >= st.n {
		return fmt.Errorf("store: appended more than the declared %d vectors", st.n)
	}
	if len(v) != st.dim {
		return fmt.Errorf("store: vector dim %d, want %d", len(v), st.dim)
	}
	if int(id) >= st.n {
		return fmt.Errorf("store: id %d out of range [0,%d)", id, st.n)
	}
	slot := w.next % st.perPage
	if slot == 0 {
		if err := w.flush(); err != nil {
			return err
		}
		w.cur = w.pw.Alloc()
		clear(w.page)
	}
	vec.Encode(w.page[slot*vec.EncodedSize(st.dim):], v)
	st.pos[id] = uint32(w.next)
	w.next++
	return nil
}

// Close abandons an unfinished store and releases its page file. After
// Finalize the file belongs to the Store and Close does nothing.
func (w *Writer) Close() error { return w.pw.Close() }

func (w *Writer) flush() error {
	if w.cur < 0 {
		return nil
	}
	return w.pw.Write(w.cur, w.page)
}

// Finalize writes the header and the id→position table and returns the
// readable Store. The Writer must have appended exactly n vectors.
func (w *Writer) Finalize() (*Store, error) {
	st := w.st
	if w.next != st.n {
		return nil, fmt.Errorf("store: appended %d of %d vectors", w.next, st.n)
	}
	if err := w.flush(); err != nil {
		return nil, err
	}
	header := make([]byte, len(w.page))
	binary.LittleEndian.PutUint32(header, storeMagic)
	binary.LittleEndian.PutUint32(header[4:], uint32(st.dim))
	binary.LittleEndian.PutUint32(header[8:], uint32(st.n))
	binary.LittleEndian.PutUint32(header[12:], uint32(st.perPage))
	if err := w.pw.Write(0, header); err != nil {
		return nil, err
	}
	idsPerPage := len(w.page) / 4
	buf := w.page
	for p := 0; p < st.tablePgs; p++ {
		clear(buf)
		for s := 0; s < idsPerPage; s++ {
			id := p*idsPerPage + s
			if id >= st.n {
				break
			}
			binary.LittleEndian.PutUint32(buf[s*4:], st.pos[id])
		}
		if err := w.pw.Write(int64(1+p), buf); err != nil {
			return nil, err
		}
	}
	var err error
	if st.pg, err = w.pw.Finish(w.opts); err != nil {
		return nil, err
	}
	return st, nil
}

// Open loads an existing store file.
func Open(path string, opts pager.Options) (*Store, error) {
	pg, err := pager.Open(path, opts)
	if err != nil {
		return nil, err
	}
	hp, err := pg.Read(0, nil)
	if err != nil {
		pg.Close()
		return nil, err
	}
	defer hp.Release()
	header := hp.Bytes()
	if binary.LittleEndian.Uint32(header) != storeMagic {
		pg.Close()
		return nil, fmt.Errorf("store: bad magic: %w", errs.ErrCorruptIndex)
	}
	dim := int(binary.LittleEndian.Uint32(header[4:]))
	n := int(binary.LittleEndian.Uint32(header[8:]))
	perPage := int(binary.LittleEndian.Uint32(header[12:]))
	idsPerPage := pg.PageSize() / 4
	tablePgs := (n + idsPerPage - 1) / idsPerPage
	st := &Store{
		pg: pg, dim: dim, n: n, perPage: perPage,
		tablePgs: tablePgs, pos: make([]uint32, n),
		firstData: int64(1 + tablePgs),
	}
	for p := 0; p < tablePgs; p++ {
		tp, err := pg.Read(int64(1+p), nil)
		if err != nil {
			pg.Close()
			return nil, err
		}
		buf := tp.Bytes()
		for s := 0; s < idsPerPage; s++ {
			id := p*idsPerPage + s
			if id >= n {
				break
			}
			st.pos[id] = binary.LittleEndian.Uint32(buf[s*4:])
		}
		tp.Release()
	}
	return st, nil
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of vectors.
func (s *Store) Len() int { return s.n }

// Pager exposes the underlying pager for I/O accounting.
func (s *Store) Pager() *pager.Pager { return s.pg }

// SizeBytes returns the on-disk size of the store file.
func (s *Store) SizeBytes() int64 { return s.pg.SizeBytes() }

// Pos returns the layout position of id.
func (s *Store) Pos(id uint32) int { return int(s.pos[id]) }

// Vector reads the vector for id (one page access; pages shared by nearby
// positions hit the buffer pool). dst is reused when large enough. The page
// read is recorded in io (nil discards the accounting).
func (s *Store) Vector(id uint32, dst []float32, io *pager.IOStats) ([]float32, error) {
	if int(id) >= s.n {
		return nil, fmt.Errorf("store: id %d out of range [0,%d)", id, s.n)
	}
	return s.VectorAt(int(s.pos[id]), dst, io)
}

// VectorAt reads the vector at a layout position, recording the page read
// in io.
func (s *Store) VectorAt(posn int, dst []float32, io *pager.IOStats) ([]float32, error) {
	if posn < 0 || posn >= s.n {
		return nil, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	pid := s.firstData + int64(posn/s.perPage)
	page, err := s.pg.Read(pid, io)
	if err != nil {
		return nil, err
	}
	defer page.Release()
	off := (posn % s.perPage) * vec.EncodedSize(s.dim)
	return vec.Decode(page.Bytes()[off:], s.dim, dst), nil
}

// NoteAt records the page of layout position posn in io (pager.Note): the
// page is counted among the query's accesses, and nothing is read.
func (s *Store) NoteAt(posn int, io *pager.IOStats) {
	s.pg.Note(s.firstData+int64(posn/s.perPage), io)
}

// Close closes the file.
func (s *Store) Close() error { return s.pg.Close() }
