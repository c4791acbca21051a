package core

import (
	"context"
	"math"

	"promips/internal/store"
	"promips/internal/vec"
)

// screenRows is the int8 copy of the vector store that verify and the
// sequential scan screen rows with: one row of codes per layout position
// (vec.QuantizeInt8, laid out at vec.Int8RowLen(d) codes, zero-padded), its
// scale and its residual bound — n·Int8RowLen(d) + 8·n bytes. Every index holds one,
// whatever its pool size: on a resident store a screened verification saves
// the memory its row occupies, on a cold one a file read. The rows are
// derived at Build (writeStore, as each point is written) and at Open
// (screenFromStore) and never persisted, and the codes live off the Go heap
// (mapCodes), so the garbage collector neither scans them nor counts them
// toward its heap goal. They belong to their generation: its genRef frees
// them with its files, after the last snapshot that reads them is released
// (DESIGN.md, "Int8 screen").
type screenRows struct {
	stride int           // vec.Int8RowLen(d)
	codes  []int8        // row pos at codes[pos*stride:(pos+1)*stride]; from mapCodes
	scales []screenScale // per layout position
}

// screenScale is one row's scale and residual bound, side by side so that a
// screen reads them from one cache line.
type screenScale struct{ scale, resid float32 }

// screenRowsHook, when set, is told of every row set mapped (+1) and of
// every one freed (-1): the lifetime tests count the live ones with it. It
// is set before any index exists and never changed.
var screenRowsHook func(delta int)

func newScreenRows(n, d int) (*screenRows, error) {
	stride := vec.Int8RowLen(d)
	codes, err := mapCodes(n * stride)
	if err != nil {
		return nil, err
	}
	if screenRowsHook != nil {
		screenRowsHook(1)
	}
	return &screenRows{stride: stride, codes: codes, scales: make([]screenScale, n)}, nil
}

// free returns the codes to the operating system. Nothing may read the rows
// afterwards: genRef.release calls it once its last reference is gone.
func (r *screenRows) free() error {
	err := unmapCodes(r.codes)
	r.codes, r.scales = nil, nil
	if screenRowsHook != nil {
		screenRowsHook(-1)
	}
	return err
}

// set quantizes the vector at layout position pos.
func (r *screenRows) set(pos int, o []float32) {
	sc := &r.scales[pos]
	sc.scale, sc.resid = vec.QuantizeInt8(r.codes[pos*r.stride:], o)
}

// screenFromStore derives the rows at Open, in one walk of the store
// (store.ScanRows): each chunk is read and its rows quantized by one task
// of the worker pool.
func screenFromStore(ctx context.Context, st *store.Store) (*screenRows, error) {
	r, err := newScreenRows(st.Len(), st.Dim())
	if err != nil {
		return nil, err
	}
	err = st.ScanRows(ctx, func(first int, rows [][]byte) {
		var buf []float32
		for i, row := range rows {
			o, ok := vec.F32View(row, st.Dim())
			if !ok {
				buf = vec.Decode(row, st.Dim(), buf)
				o = buf
			}
			r.set(first+i, o)
		}
	})
	if err != nil {
		r.free()
		return nil, err
	}
	return r, nil
}

// screen reports whether the int8 copy of the row at layout position pos
// proves that verifying it cannot change the top-k: its bound on the inner
// product verification would compute, against the query newQuery quantized
// into sc.zq, is at most ⟨omax^k,q⟩, which offer ignores at equality. It
// never screens without a full top-k, nor with the screen switched off.
func (s *query) screen(pos uint32) bool {
	ipK, full := s.top.kth()
	r, sc := s.sn.screen, s.sn.screen.scales[pos]
	return full && !s.sn.noScreen &&
		s.sc.zq.Bound(r.codes[int(pos)*r.stride:int(pos+1)*r.stride], sc.scale, sc.resid, math.Sqrt(s.sn.norm2Sq[pos])) <= ipK
}

// The screened scan: every sequential row scan (scanAll, scanMem) leaves
// the top-k exactly as offering every admitted row's inner product in scan
// order would, in two passes. Pass one (boundPass) bounds every row from
// its int8 codes, B ≥ ⟨o,q⟩; the exact inner products of the k rows with
// the largest B give T, the least of them. Pass two (settleRows) scores a
// row only when B ≥ T and B is above the running k-th. T is at most the
// final k-th, so a skipped row has ⟨o,q⟩ ≤ B < T, strictly below it, and
// topK, which keeps the k best under (inner product descending, offer
// order), ends with the same ids, bits and tie order without its offer.

// scanChunk is how many rows a screened scan's first pass scores per call
// of the kernel; ctx is checked before each chunk.
const scanChunk = 256

// scanRow is one admitted row of a screened scan: its place in the scan (a
// layout position, or an entry's place in the backlog) and its bound — or,
// once pass two has scored it for the threshold (kept), its inner product.
type scanRow struct {
	i    uint32
	kept bool
	b    float64
}

// boundPass is pass one over n rows of one slab, rows place to place+n−1
// of the scan, row i's codes at codes[i·stride:]: row(i) gives the row's
// id, its scale and residual bound, and ‖o‖². It appends every admitted
// row to sc.rows with its bound, +Inf when screen is false. ctx is checked
// before every chunk of scanChunk rows.
func (s *query) boundPass(place, n int, codes []int8, screen bool, row func(i int) (uint32, screenScale, float64)) error {
	sn, sc, z, stride := s.sn, s.sc, &s.sc.zq, s.sn.screen.stride
	filtered := s.params.Filter != nil || len(sn.tombFrozen)+len(sn.tombRecent) > 0
	for first := 0; first < n; first += scanChunk {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		m := min(scanChunk, n-first)
		if screen {
			z.DotRows(codes[first*stride:], sc.dots[:m])
		}
		for i := range m {
			id, r, norm2 := row(first + i)
			if filtered && !s.admits(id) {
				continue
			}
			b := math.Inf(1)
			if screen {
				b = z.BoundDot(float64(sc.dots[i]), r.scale, r.resid, math.Sqrt(norm2))
			}
			sc.rows = append(sc.rows, scanRow{i: uint32(place + first + i), b: b})
		}
	}
	return nil
}

// settleRows is pass two over sc.rows: it scores the k rows with the
// largest finite bounds with dot for T (−Inf when there are fewer), then
// offers the rows in order under id, scoring the others that can beat
// both T and the running k-th. It returns how many rows it never scored.
func (s *query) settleRows(id func(i uint32) uint32, dot func(i uint32) (float64, error)) (skipped int, err error) {
	sc, keep := s.sc, &s.sc.keep
	keep.reset(s.k) // ID: the row's place in sc.rows, IP: its bound
	for j, r := range sc.rows {
		if r.b < math.Inf(1) {
			keep.offer(uint32(j), r.b)
		}
	}
	t := math.Inf(1)
	for _, k := range keep.results {
		r := &sc.rows[k.ID]
		if r.b, err = dot(r.i); err != nil {
			return 0, err
		}
		r.kept, t = true, min(t, r.b)
	}
	if len(keep.results) < s.k {
		t = math.Inf(-1)
	}
	skipped = len(sc.rows) - len(keep.results)
	for _, r := range sc.rows {
		ip := r.b
		if !r.kept {
			if ipK, full := s.top.kth(); r.b < t || full && r.b <= ipK {
				continue
			}
			if ip, err = dot(r.i); err != nil {
				return 0, err
			}
			skipped--
		}
		s.top.offer(id(r.i), ip)
	}
	return skipped, nil
}
