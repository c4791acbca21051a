package core

import (
	"context"
	"math"

	"promips/internal/store"
	"promips/internal/vec"
)

// screenRows is the int8 copy of the vector store that verify screens
// candidates with: one row of codes per layout position (vec.QuantizeInt8),
// its scale and its residual bound — n·d + 8·n bytes. Every index holds one,
// whatever its pool size: on a resident store a screened verification saves
// the memory its row occupies, on a cold one a file read. The rows are
// derived at Build (writeStore, as each point is written) and at Open
// (screenFromStore) and never persisted, and the codes live off the Go heap
// (mapCodes), so the garbage collector neither scans them nor counts them
// toward its heap goal. They belong to their generation: its genRef frees
// them with its files, after the last snapshot that reads them is released
// (DESIGN.md, "Int8 screen").
type screenRows struct {
	d      int
	codes  []int8        // row pos at codes[pos*d:(pos+1)*d]; from mapCodes
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
	codes, err := mapCodes(n * d)
	if err != nil {
		return nil, err
	}
	if screenRowsHook != nil {
		screenRowsHook(1)
	}
	return &screenRows{d: d, codes: codes, scales: make([]screenScale, n)}, nil
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
	sc.scale, sc.resid = vec.QuantizeInt8(r.codes[pos*r.d:(pos+1)*r.d], o)
}

// bound returns an upper bound on the inner product verification would
// compute for the row at pos, whose squared norm is normOSq, against the
// query z was quantized from.
func (r *screenRows) bound(pos int, z *vec.Int16Query, normOSq float64) float64 {
	sc := r.scales[pos]
	return z.Bound(r.codes[pos*r.d:(pos+1)*r.d], sc.scale, sc.resid, math.Sqrt(normOSq))
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
			o, ok := vec.F32View(row, r.d)
			if !ok {
				buf = vec.Decode(row, r.d, buf)
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
	if s.sn.noScreen {
		return false
	}
	ipK, full := s.top.kth()
	if !full {
		return false
	}
	return s.sn.screen.bound(int(pos), &s.sc.zq, s.sn.norm2Sq[pos]) <= ipK
}
