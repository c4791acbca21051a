//go:build !amd64

package vec

// QuantizeInt8's loops over whole blocks of four components: the portable
// ones (screen_amd64.go has the contract).

func quantizeBlocks(dst []int8, o []float32, inv, s float64) float64 {
	return quantizeTail(dst, o, inv, s)
}

func maxAbsBlocks(o []float32) float32 { return maxAbsTail(o, 0) }

func dotInt8Blocks(a []int8, b []int16) int64 { return dotInt8Tail(a, b) }
