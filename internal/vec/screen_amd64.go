package vec

// QuantizeInt8's loops over whole blocks of four components, in SSE2
// (screen_amd64.s; SSE2 is part of the amd64 baseline, so nothing is
// detected at run time). len(o) must be a multiple of four. quantizeBlocks
// computes every code and residual with the float64 operations of
// quantizeTail, two components per instruction, so the codes are the same;
// only the residual sum is taken in another order. maxAbsBlocks returns
// max |oᵢ|, or 0 for no components.

//go:noescape
func quantizeBlocks(dst []int8, o []float32, inv, s float64) float64

//go:noescape
func maxAbsBlocks(o []float32) float32
