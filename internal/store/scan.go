package store

import (
	"context"
	"fmt"

	"promips/internal/pager"
	"promips/internal/vec"
)

// scanChunkBytes is how much of the file one read of ScanDot fetches (32 of
// the default 4 KiB pages): large enough that the read syscall is noise next
// to scoring the ~100 vectors it returns, small enough to stay cache-resident
// while they are scored.
const scanChunkBytes = 128 << 10

// ScanDot is the sequential scorer: one walk of the whole store in layout
// order, calling emit(pos, ⟨o_pos,q⟩) — ascending pos — for every position
// keep accepts. Each inner product is bit-identical to Reader.DotAt of that
// position (four rows per pass of vec.Dot4Bytes).
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
	pageSize := s.pg.PageSize()
	chunkPages := max(1, scanChunkBytes/pageSize)
	resident := s.pg.Resident()
	if !resident && cap(buf) < chunkPages*pageSize {
		buf = make([]byte, chunkPages*pageSize)
	}
	rowSize := vec.EncodedSize(s.dim)
	dataPages := (s.n + s.perPage - 1) / s.perPage
	pages := make([][]byte, 0, chunkPages) // the chunk in hand: pool pages, or buf cut up
	var run []pager.Page                   // the pool pages' pins, released once the chunk is scored
	var rows [4][]byte                     // kept rows awaiting one Dot4Bytes, and their positions
	var at [4]int
	for page := 0; page < dataPages; page += chunkPages {
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		first, n := s.firstData+int64(page), min(chunkPages, dataPages-page)
		var err error
		pages = pages[:0]
		if resident {
			run, err = s.pg.ReadRun(first, n, run[:0], io)
			for _, pg := range run {
				pages = append(pages, pg.Bytes())
			}
		} else {
			chunk := buf[:n*pageSize]
			err = s.pg.ReadDirect(first, chunk, io)
			for ; len(chunk) > 0; chunk = chunk[pageSize:] {
				pages = append(pages, chunk[:pageSize])
			}
		}
		if err != nil {
			return buf, err
		}
		nb := 0
		pos := page * s.perPage
		for _, data := range pages {
			for slot := 0; slot < s.perPage && pos < s.n; slot, pos = slot+1, pos+1 {
				if !keep(pos) {
					continue
				}
				rows[nb], at[nb] = data[slot*rowSize:], pos
				if nb++; nb == len(rows) {
					ip0, ip1, ip2, ip3 := vec.Dot4Bytes(rows[0], rows[1], rows[2], rows[3], q)
					emit(at[0], ip0)
					emit(at[1], ip1)
					emit(at[2], ip2)
					emit(at[3], ip3)
					nb = 0
				}
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
