package vec

// Dot8's AVX2 blocks (dot8_amd64.s). dot8Blocks sets dst[r] to the first n
// terms of row r's inner product with q, n a multiple of four: each row
// keeps one float64 chain in one lane, and every term is a VMULPD of the
// widened components followed by a VADDPD, in ascending dimension order —
// dotKernel's operation sequence exactly (see Dot8). cpuAVX2 reports whether
// the CPU and the OS support AVX2; it runs once, at package initialization.

//go:noescape
func dot8Blocks(rows *[8]*float32, q *float32, n int, dst *[8]float64)

func cpuAVX2() bool

// useAVX2 routes Dot8 through dot8Blocks. The kernel tests clear it to run
// the portable loop on the same host.
var useAVX2 = cpuAVX2()
