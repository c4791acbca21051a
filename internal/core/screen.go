package core

import (
	"context"
	"math"

	"promips/internal/idistance"
	"promips/internal/par"
	"promips/internal/store"
	"promips/internal/vec"
)

// screenRows is the int8 copy of the vector store that verify screens
// candidates with: one row of codes per layout position (vec.QuantizeInt8),
// its scale and its residual bound — n·d + 8·n bytes. An index holds one
// exactly when its store's buffer pool holds the whole store: there a
// verification is a pool hit whose cost is the memory its row occupies, and
// the copy reads a quarter of it. A cold store's verification is an I/O the
// screen could save too, but the copy would then be the largest thing in
// memory, so a cold index has none. The rows are derived at Build and at
// Open and never persisted (DESIGN.md, "Int8 screen").
type screenRows struct {
	d      int
	codes  []int8        // row pos at codes[pos*d:(pos+1)*d]
	scales []screenScale // per layout position
}

// screenScale is one row's scale and residual bound, side by side so that a
// screen reads them from one cache line.
type screenScale struct{ scale, resid float32 }

func newScreenRows(n, d int) *screenRows {
	return &screenRows{d: d, codes: make([]int8, n*d), scales: make([]screenScale, n)}
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

// screenFromData derives the rows at Build, from the in-memory points in the
// order the store was written in, on the build pool.
func screenFromData(ctx context.Context, data [][]float32, layout []uint32) (*screenRows, error) {
	r := newScreenRows(len(layout), len(data[0]))
	err := par.Range(ctx, len(layout), buildGrain, func(lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			r.set(pos, data[layout[pos]])
		}
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// screenFromStore derives the rows at Open, in one walk of the store that
// bypasses its buffer pool (store.ScanRows): each chunk is read and its rows
// quantized by one task of the worker pool.
func screenFromStore(ctx context.Context, st *store.Store) (*screenRows, error) {
	r := newScreenRows(st.Len(), st.Dim())
	err := st.ScanRows(ctx, func(first int, rows [][]byte) {
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
		return nil, err
	}
	return r, nil
}

// screen reports whether the int8 copy of cand's row proves that verifying
// it cannot change the top-k: its bound on the inner product verification
// would compute, against the query run quantized into sc.zq, is at most
// ⟨omax^k,q⟩, which offer ignores at equality. It never screens without a
// full top-k, nor on a view without rows or with the screen switched off.
func (s *query) screen(cand idistance.Candidate) bool {
	rows := s.sn.screen
	if rows == nil || s.sn.noScreen {
		return false
	}
	ipK, full := s.top.kth()
	if !full {
		return false
	}
	return rows.bound(int(cand.Pos), &s.sc.zq, s.sn.norm2Sq[cand.Pos]) <= ipK
}
