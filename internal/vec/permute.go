package vec

import "fmt"

// Per-point arrays are persisted by point id but read by the query path in
// the iDistance layout order, so they are permuted once when an index is
// built or opened and un-permuted into a copy when it is saved. order is the
// layout — order[r] is the id whose row lands at position r — and must be a
// permutation of 0..n−1.

// PermuteRows reorders s, n rows of width elements, in place so that row r
// afterwards holds what row order[r] held. It follows the permutation's
// cycles, so the only extra memory is one row and a bit per row; an order
// that is not a permutation of the rows panics.
func PermuteRows[T any](s []T, width int, order []uint32) {
	n := len(order)
	if len(s) != n*width {
		panic(fmt.Sprintf("vec: PermuteRows of %d elements by %d rows of %d", len(s), n, width))
	}
	done := make([]uint64, (n+63)/64)
	tmp := make([]T, width)
	for start := range n {
		if done[start/64]&(1<<(start%64)) != 0 {
			continue
		}
		copy(tmp, s[start*width:(start+1)*width])
		for j := start; ; {
			done[j/64] |= 1 << (j % 64)
			k := int(order[j])
			if k == start {
				copy(s[j*width:(j+1)*width], tmp)
				break
			}
			if k >= n || done[k/64]&(1<<(k%64)) != 0 {
				panic(fmt.Sprintf("vec: PermuteRows order is not a permutation at row %d", j))
			}
			copy(s[j*width:(j+1)*width], s[k*width:(k+1)*width])
			j = k
		}
	}
}

// UnpermuteRows returns a copy of s with row r moved to row order[r]: the
// inverse of PermuteRows, leaving s untouched.
func UnpermuteRows[T any](s []T, width int, order []uint32) []T {
	out := make([]T, len(s))
	for r, id := range order {
		copy(out[int(id)*width:(int(id)+1)*width], s[r*width:(r+1)*width])
	}
	return out
}
