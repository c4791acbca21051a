package vec

import "unsafe"

// The squared-distance kernel's AVX2 loop (l2rows_amd64.s). l2Blocks sets
// dst[i] = ‖row i − q‖² for i < n, n a multiple of four, every row m ≥ 1
// floats long. Row i starts at rows + i·stride bytes, or, when stride is 0,
// rows points at n slice headers ([]float32) and row i starts at the i-th's
// data. Each group of four rows keeps one float64 chain per row in one
// lane, and every term is a VSUBPD of the widened components, a VMULPD of
// the difference by itself and a VADDPD, in ascending dimension order —
// l2Kernel's operation sequence exactly (see L2DistSqSlab). It runs only
// when useAVX2 is set.

//go:noescape
func l2Blocks(rows unsafe.Pointer, stride int, n int, q *float32, m int, dst *float64)
