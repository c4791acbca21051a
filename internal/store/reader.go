package store

import (
	"fmt"

	"promips/internal/pager"
	"promips/internal/vec"
)

// readerWindow is how many recently touched data pages a Reader keeps
// pinned. Verification consumes candidates in the iDistance layout order the
// store was written in, so consecutive candidates overwhelmingly share a
// page or straddle a small set of adjacent ones; a tiny window captures
// almost all of the locality without growing per-query state.
const readerWindow = 4

// Reader is one query's cursor over the store: a page-local memo that turns
// the pager round trip per candidate into one per distinct page. It holds the
// window's pages pinned, so their frames cannot be recycled under it, and
// releases each page when a newer one replaces it in the window and all of
// them on Reset: a query that Resets its Reader when it ends leaves no pin
// behind.
//
// A Reader belongs to a single query: it is not safe for concurrent use,
// and it must not outlive the Store it came from (a compaction swap closes
// the old generation's pager once the index lock is released). Repeat hits
// on a pinned page bypass the pager, so they are not re-recorded in io —
// the paper's Page Access metric counts distinct pages, which is unchanged.
type Reader struct {
	s     *Store
	pids  [readerWindow]int64
	pages [readerWindow]pager.Page
	next  int
}

// NewReader returns a Reader with an empty window.
func (s *Store) NewReader() Reader {
	r := Reader{s: s}
	for i := range r.pids {
		r.pids[i] = -1
	}
	return r
}

// Reset releases the window's pages and rebinds the Reader to st, so a
// pooled query scratch can reuse the same Reader value across queries (and
// across compaction generation swaps).
func (r *Reader) Reset(st *Store) {
	r.s = st
	for i := range r.pids {
		r.pids[i] = -1
		r.pages[i].Release()
	}
	r.next = 0
}

// entry returns the encoded bytes of the vector at layout position posn,
// reading the page through the pinned window. The bytes are valid until the
// window moves on, i.e. until the Reader's next read of another page.
func (r *Reader) entry(posn int, io *pager.IOStats) ([]byte, error) {
	s := r.s
	if posn < 0 || posn >= s.n {
		return nil, fmt.Errorf("store: position %d out of range [0,%d)", posn, s.n)
	}
	pid := s.firstData + int64(posn/s.perPage)
	off := (posn % s.perPage) * vec.EncodedSize(s.dim)
	for i := range r.pids {
		if r.pids[i] == pid {
			return r.pages[i].Bytes()[off:], nil
		}
	}
	page, err := s.pg.Read(pid, io)
	if err != nil {
		return nil, err
	}
	r.pages[r.next].Release()
	r.pids[r.next] = pid
	r.pages[r.next] = page
	r.next = (r.next + 1) % readerWindow
	return page.Bytes()[off:], nil
}

// DotAt returns ⟨o,q⟩ for the stored vector at layout position posn,
// computed straight from the page bytes (zero-copy on little-endian hosts,
// fused decode otherwise) — the verification kernel of the query hot path.
func (r *Reader) DotAt(posn int, q []float32, io *pager.IOStats) (float64, error) {
	if len(q) != r.s.dim {
		return 0, fmt.Errorf("store: query dim %d, want %d", len(q), r.s.dim)
	}
	entry, err := r.entry(posn, io)
	if err != nil {
		return 0, err
	}
	return vec.DotBytes(entry, q), nil
}
