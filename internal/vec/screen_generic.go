//go:build !amd64

package vec

// QuantizeInt8's and DotInt8Int16's loops over whole blocks: the portable
// ones (screen_amd64.go has the contract). DotInt8Rows's four-row kernel is
// AVX2 only, and useAVX2 is false here.

func quantizeBlocks(dst []int8, o []float32, inv, s float64) float64 {
	return quantizeTail(dst, o, inv, s)
}

func maxAbsBlocks(o []float32) float32 { return maxAbsTail(o, 0) }

func dotInt8Blocks(a []int8, b []int16) int64 { return dotInt8Tail(a, b) }

func dotInt8Rows4(a *int8, stride, groups int, b *int16, n int, dst *int64) {
	panic("vec: dotInt8Rows4 without AVX2")
}
