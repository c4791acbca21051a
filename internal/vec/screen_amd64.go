package vec

// QuantizeInt8's loops over whole blocks of four components, in SSE2
// (screen_amd64.s; SSE2 is part of the amd64 baseline, so nothing is
// detected at run time). len(o) must be a multiple of four. quantizeBlocks
// computes every code and residual with the float64 operations of
// quantizeTail, two components per instruction, so the codes are the same;
// only the residual sum is taken in another order. It reads each code off
// the rounding itself, the low dword of x·(1/s) + roundMagic. maxAbsBlocks
// returns max |oᵢ|, or 0 for no components.
//
// dotInt8Blocks is DotInt8Int16 over whole blocks of eight dimensions:
// PMADDWD sums each pair of int8×int16 products into one of four int32
// lanes, which are flushed into an int64 total every 255 blocks or fewer
// (DESIGN "Int8 screen" has the bound). len(a) must be a multiple of eight
// and len(b) at least len(a).

//go:noescape
func quantizeBlocks(dst []int8, o []float32, inv, s float64) float64

//go:noescape
func maxAbsBlocks(o []float32) float32

//go:noescape
func dotInt8Blocks(a []int8, b []int16) int64
