package pager

import (
	"fmt"
	"os"
)

// Writer creates a page file. Pages are allocated in id order and written in
// any order, each Write going straight to the file. Finish makes the file
// durable and turns it into a Pager; until then nothing can read it, so a
// finished file never has pages its readers cannot see.
type Writer struct {
	f        *os.File // nil once Finish or Close has run
	pageSize int
	numPages int64
}

// Create makes (or truncates) the page file at path.
func Create(path string, pageSize int) (*Writer, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: create %s: %w", path, err)
	}
	return &Writer{f: f, pageSize: pageSize}, nil
}

// PageSize returns the page size in bytes.
func (w *Writer) PageSize() int { return w.pageSize }

// NumPages returns the number of pages allocated so far.
func (w *Writer) NumPages() int64 { return w.numPages }

// Alloc appends a page and returns its id. A page that is never written
// reads as zeros.
func (w *Writer) Alloc() int64 {
	w.numPages++
	return w.numPages - 1
}

// Write sets the content of the allocated pages from id on: data is a whole
// number of pages, written with one WriteAt. Writing a page again replaces
// it.
func (w *Writer) Write(id int64, data []byte) error {
	n := int64(len(data) / w.pageSize)
	if n == 0 || len(data)%w.pageSize != 0 {
		return fmt.Errorf("pager: write of %d bytes is not a whole number of %d-byte pages", len(data), w.pageSize)
	}
	if id < 0 || id+n > w.numPages {
		return fmt.Errorf("%w: write [%d,%d) (have %d)", ErrPageOutOfRange, id, id+n, w.numPages)
	}
	if _, err := w.f.WriteAt(data, id*int64(w.pageSize)); err != nil {
		return fmt.Errorf("pager: write pages [%d,%d): %w", id, id+n, err)
	}
	return nil
}

// Finish extends the file to its allocated length, fsyncs it and returns the
// Pager that reads it (opts.PageSize is replaced by the Writer's). On error
// the file is closed; either way the Writer is spent.
func (w *Writer) Finish(opts Options) (*Pager, error) {
	f := w.f
	w.f = nil
	err := f.Truncate(w.numPages * int64(w.pageSize))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: finish %s: %w", f.Name(), err)
	}
	opts.PageSize = w.pageSize
	opts.normalize()
	return newPager(f, opts, w.numPages), nil
}

// Close abandons an unfinished file. After Finish it does nothing, so a
// builder can defer it right after Create.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	return f.Close()
}
