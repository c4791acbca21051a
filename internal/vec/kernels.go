package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Fused page kernels. Candidate verification — the dominant cost of every
// MIPS method in the paper — reads original vectors back from disk pages.
// The kernels in this file compute reductions straight from the page bytes
// the pager hands out: on little-endian hosts the bytes are aliased as
// []float32 with no copy at all; elsewhere (or when a caller passes an
// unaligned buffer) a fused decode loop converts each element in the
// reduction itself, so no intermediate []float32 buffer exists on either
// path.
//
// Bit-exactness contract: every kernel performs the exact float operation
// sequence of Decode followed by the corresponding []float32 reduction
// (single float64 accumulator, ascending index order). The 4-way unrolling
// below keeps that order — it only removes loop overhead, never
// reassociates the sum — so DotBytes/L2DistSqBytes are bit-identical to
// Dot/L2DistSq on decoded copies, and search results are bit-identical to
// the pre-kernel implementation (pinned by internal/core's golden test).

// hostLittleEndian reports whether this machine stores multi-byte values
// little-endian, i.e. whether the on-disk layout can be aliased directly.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// F32View returns buf's first 4*dim bytes aliased as a []float32 without
// copying, and ok=true, when the host is little-endian and buf is 4-byte
// aligned. Otherwise ok=false and the caller must fall back to Decode (or a
// fused *Bytes kernel). The view shares memory with buf: it is read-only
// and valid exactly as long as buf is — for pager pages, as long as the
// Pager of a resident file, or until the caller reuses its read buffer.
func F32View(buf []byte, dim int) ([]float32, bool) {
	if dim == 0 {
		return nil, true
	}
	if len(buf) < 4*dim {
		panic(fmt.Sprintf("vec: F32View of %d floats over %d bytes", dim, len(buf)))
	}
	if !hostLittleEndian {
		return nil, false
	}
	p := unsafe.Pointer(&buf[0])
	if uintptr(p)%unsafe.Alignof(float32(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(p), dim), true
}

// AppendF32LE appends v's elements to dst in little-endian float32 wire
// format — the inverse of F32View, used by the update journal's record
// encoder on the insert acknowledgement path. On a little-endian host the
// whole slice is appended as one bulk copy of its underlying bytes; the
// portable fallback encodes element-wise. Both paths produce identical
// bytes (IEEE-754 bits, little-endian order).
func AppendF32LE(dst []byte, v []float32) []byte {
	if len(v) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
	}
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// U32 reads a little-endian uint32 — the record-id load of the page scan
// loops, kept here so the scan paths carry no per-element binary.* decoding.
func U32(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf) }

// dotKernel is the shared inner-product loop: single float64 accumulator in
// ascending index order (the bit-exactness contract), 4-way unrolled over
// fixed-length windows so the loop carries no bounds checks. Callers
// guarantee len(b) <= len(a).
func dotKernel(a, b []float32) float64 {
	var s float64
	a = a[:len(b)]
	for len(b) >= 4 {
		x, y := a[:4:4], b[:4:4]
		s += float64(x[0]) * float64(y[0])
		s += float64(x[1]) * float64(y[1])
		s += float64(x[2]) * float64(y[2])
		s += float64(x[3]) * float64(y[3])
		a, b = a[4:], b[4:]
	}
	for i, y := range b {
		s += float64(a[i]) * float64(y)
	}
	return s
}

// Dot4 returns ⟨a0,b⟩ … ⟨a3,b⟩, each ==-identical to Dot(ai, b). Dot's
// single accumulator makes it latency-bound — every add waits for the
// previous one — and the bit-exactness contract forbids splitting that sum.
// Scoring four ROWS in one loop gives the CPU four independent add chains
// instead, with no sum reassociated: each row keeps its own accumulator in
// ascending index order. The random projection's rows use it. It panics on
// a dimension mismatch like Dot.
func Dot4(a0, a1, a2, a3, b []float32) (s0, s1, s2, s3 float64) {
	n := len(b)
	if len(a0) != n || len(a1) != n || len(a2) != n || len(a3) != n {
		panic(fmt.Sprintf("vec: Dot4 dimension mismatch %d/%d/%d/%d != %d", len(a0), len(a1), len(a2), len(a3), n))
	}
	for i, q := range b {
		f := float64(q)
		s0 += float64(a0[i]) * f
		s1 += float64(a1[i]) * f
		s2 += float64(a2[i]) * f
		s3 += float64(a3[i]) * f
	}
	return
}

// Dot8 sets dst[r] = Dot(rows[r], q) for each of the eight rows, bit for
// bit: Dot4's independent chains, eight of them. The sketch's lookup
// tables use it. On
// amd64 with AVX2, whole blocks of four dimensions run in dot8Blocks, one
// row per vector lane. Widening a float32 to float64 is exact, and so is
// the product of two widened float32s (24+24 significant bits fit in 53,
// and no product of finite float32s overflows or goes subnormal in
// float64), so each lane's VMULPD then VADDPD rounds exactly where
// dotKernel's s += a·b does; no FMA is used, and with an exact product one
// would round the same anyway. A dimension tail past the last whole block —
// or every dimension, without AVX2 — continues each row's chain here, in
// ascending order. It panics on a dimension mismatch like Dot.
func Dot8(rows *[8][]float32, q []float32, dst *[8]float64) {
	n := len(q)
	for _, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("vec: Dot8 dimension mismatch %d != %d", len(r), n))
		}
	}
	var s [8]float64
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		var p [8]*float32
		for r, row := range rows {
			p[r] = &row[0]
		}
		dot8Blocks(&p, &q[0], i, &s)
	}
	a0, a1, a2, a3, a4, a5, a6, a7 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], rows[4][:n], rows[5][:n], rows[6][:n], rows[7][:n]
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	for ; i < n; i++ {
		f := float64(q[i])
		s0 += float64(a0[i]) * f
		s1 += float64(a1[i]) * f
		s2 += float64(a2[i]) * f
		s3 += float64(a3[i]) * f
		s4 += float64(a4[i]) * f
		s5 += float64(a5[i]) * f
		s6 += float64(a6[i]) * f
		s7 += float64(a7[i]) * f
	}
	*dst = [8]float64{s0, s1, s2, s3, s4, s5, s6, s7}
}

// l2Kernel is the shared squared-distance loop; same contract as dotKernel.
func l2Kernel(a, b []float32) float64 {
	var s float64
	i, n := 0, len(b)
	for ; i+4 <= n; i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		s += d0 * d0
		d1 := float64(a[i+1]) - float64(b[i+1])
		s += d1 * d1
		d2 := float64(a[i+2]) - float64(b[i+2])
		s += d2 * d2
		d3 := float64(a[i+3]) - float64(b[i+3])
		s += d3 * d3
	}
	for ; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// L2DistSqSlab sets dst[i] = L2DistSq(rows[i*stride:i*stride+len(b)], b)
// for every i, bit for bit: len(dst) rows stride ≥ len(b) floats apart in
// one slab — a codebook's codewords, a page run's coordinates — scored in
// one call. On amd64 with AVX2 every row runs in l2Blocks, four rows per
// group, one row per vector lane, the last group padded with copies of the
// last row. Widening a float32 to float64 is exact, and the lane's VSUBPD,
// VMULPD and VADDPD are the IEEE double operations Go compiles
// float64(a)-float64(b), d*d and s += to (Go never fuses them on amd64), in
// ascending dimension order, so each lane rounds exactly where l2Kernel
// does. Without AVX2 the rows run four at a time through l2Chains4. It
// panics on a stride shorter than a row or a slab too short for the last
// row.
func L2DistSqSlab(rows []float32, stride int, b []float32, dst []float64) {
	n, m := len(dst), len(b)
	if n == 0 {
		return
	}
	if stride < m || len(rows) < (n-1)*stride+m {
		panic(fmt.Sprintf("vec: L2DistSqSlab of %d rows of %d floats, %d apart, over %d floats", n, m, stride, len(rows)))
	}
	l2Rows(unsafe.Pointer(unsafe.SliceData(rows)), 4*stride, func(i int) []float32 { return rows[i*stride : i*stride+m] }, b, dst)
}

// L2DistSqEach sets dst[i] = L2DistSq(rows[i], b) for every i, bit for bit:
// L2DistSqSlab over rows that lie anywhere (the points of a k-means sample,
// a centroid list), scored in one call. It panics on a dimension mismatch
// like L2DistSq.
func L2DistSqEach(rows [][]float32, b []float32, dst []float64) {
	if len(rows) != len(dst) {
		panic(fmt.Sprintf("vec: L2DistSqEach of %d rows into %d distances", len(rows), len(dst)))
	}
	for _, r := range rows {
		if len(r) != len(b) {
			panic(fmt.Sprintf("vec: L2DistSqEach dimension mismatch %d != %d", len(r), len(b)))
		}
	}
	l2Rows(unsafe.Pointer(unsafe.SliceData(rows)), 0, func(i int) []float32 { return rows[i] }, b, dst)
}

// l2Rows is the squared-distance kernel behind L2DistSqSlab and
// L2DistSqEach: len(dst) rows, row i both row(i) and what l2Blocks
// finds from base and stride (a byte stride, or 0 for slice headers).
func l2Rows(base unsafe.Pointer, stride int, row func(int) []float32, b []float32, dst []float64) {
	n, m := len(dst), len(b)
	if !useAVX2 || m == 0 {
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i], dst[i+1], dst[i+2], dst[i+3] = l2Chains4(row(i), row(i+1), row(i+2), row(i+3), b)
		}
		for ; i < n; i++ {
			dst[i] = l2Kernel(row(i), b)
		}
		return
	}
	whole := n &^ 3
	if whole > 0 {
		l2Blocks(base, stride, whole, &b[0], m, &dst[0])
	}
	if whole < n {
		// One more group for the last one to three rows, padded with copies
		// of the last row.
		var group [4][]float32
		for r := range group {
			group[r] = row(min(whole+r, n-1))
		}
		var s [4]float64
		l2Blocks(unsafe.Pointer(&group), 0, 4, &b[0], m, &s[0])
		copy(dst[whole:], s[:])
	}
}

// l2Chains4 returns ‖a0−b‖₂² … ‖a3−b‖₂², each ==-identical to l2Kernel(ai,
// b): four rows, four independent accumulators, each in ascending index
// order. Every ai is len(b) long.
func l2Chains4(a0, a1, a2, a3, b []float32) (s0, s1, s2, s3 float64) {
	n := len(b)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	for i, q := range b {
		f := float64(q)
		d0 := float64(a0[i]) - f
		s0 += d0 * d0
		d1 := float64(a1[i]) - f
		s1 += d1 * d1
		d2 := float64(a2[i]) - f
		s2 += d2 * d2
		d3 := float64(a3[i]) - f
		s3 += d3 * d3
	}
	return
}

// DotBytes returns ⟨o,b⟩ where o is the len(b)-dimensional encoded vector
// at the start of buf — bit-identical to Dot(Decode(buf, len(b), nil), b)
// with no decode buffer. It panics when buf is too short, mirroring Dot's
// dimension-mismatch panic.
func DotBytes(buf []byte, b []float32) float64 {
	if len(buf) < 4*len(b) {
		panic(fmt.Sprintf("vec: DotBytes of %d floats over %d bytes", len(b), len(buf)))
	}
	if v, ok := F32View(buf, len(b)); ok {
		return dotKernel(v, b)
	}
	return dotBytesPortable(buf, b)
}

// dotBytesPortable is the fused decode+multiply fallback for big-endian or
// unaligned buffers; same operation order as dotKernel.
func dotBytesPortable(buf []byte, b []float32) float64 {
	var s float64
	for i := range b {
		o := math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		s += float64(o) * float64(b[i])
	}
	return s
}

// L2DistSqBytes returns ‖o−b‖₂² for the encoded vector at the start of buf —
// bit-identical to L2DistSq(Decode(buf, len(b), nil), b) with no decode
// buffer.
func L2DistSqBytes(buf []byte, b []float32) float64 {
	if len(buf) < 4*len(b) {
		panic(fmt.Sprintf("vec: L2DistSqBytes of %d floats over %d bytes", len(b), len(buf)))
	}
	if v, ok := F32View(buf, len(b)); ok {
		return l2Kernel(v, b)
	}
	return l2DistSqBytesPortable(buf, b)
}

func l2DistSqBytesPortable(buf []byte, b []float32) float64 {
	var s float64
	for i := range b {
		o := math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		d := float64(o) - float64(b[i])
		s += d * d
	}
	return s
}

// L2DistSqRows sets dst[i] = L2DistSqBytes(buf[i*stride:], b) for every i,
// each bit-identical to that call: len(dst) encoded rows stride bytes apart
// — iDistance's page entries, an id then the coordinates — scored by
// L2DistSqSlab over one view of the whole run, so the page scan pays one
// call per run. A run that cannot be aliased (big-endian host, unaligned
// bytes, a stride that is not a whole number of floats) is scored row by
// row.
func L2DistSqRows(buf []byte, stride int, b []float32, dst []float64) {
	n, m := len(dst), len(b)
	if n == 0 {
		return
	}
	var words []float32
	ok := false
	if stride%4 == 0 {
		words, ok = F32View(buf, (n-1)*stride/4+m)
	}
	if !ok {
		for i := range dst {
			dst[i] = L2DistSqBytes(buf[i*stride:], b)
		}
		return
	}
	L2DistSqSlab(words, stride/4, b, dst)
}
