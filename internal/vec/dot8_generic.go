//go:build !amd64

package vec

// Dot8's portable build: no vector blocks (dot8_amd64.go has the contract).

func dot8Blocks(rows *[8]*float32, q *float32, n int, dst *[8]float64) {
	panic("vec: dot8Blocks without AVX2")
}

var useAVX2 = false
