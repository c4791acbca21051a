//go:build !amd64

package vec

import "unsafe"

// The squared-distance kernel's portable build: no vector blocks
// (l2rows_amd64.go has the contract).

func l2Blocks(rows unsafe.Pointer, stride int, n int, q *float32, m int, dst *float64) {
	panic("vec: l2Blocks without AVX2")
}
