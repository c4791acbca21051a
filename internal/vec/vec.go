// Package vec provides the dense-vector primitives shared by every index in
// this repository: inner products, norms, Euclidean distances and a compact
// binary codec. Vectors are stored as []float32 (matching the on-disk layout
// of real MIPS datasets) while all reductions accumulate in float64 to keep
// condition tests (which compare sums of squares) numerically stable.
package vec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Dot returns the inner product ⟨a,b⟩ accumulated in float64.
// It panics if the lengths differ: every caller indexes vectors of a fixed,
// index-wide dimensionality, so a mismatch is a programming error.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot dimension mismatch %d != %d", len(a), len(b)))
	}
	return dotKernel(a, b)
}

// Norm2Sq returns ‖a‖₂².
func Norm2Sq(a []float32) float64 {
	var s float64
	for _, v := range a {
		f := float64(v)
		s += f * f
	}
	return s
}

// Norm2 returns the Euclidean norm ‖a‖₂.
func Norm2(a []float32) float64 { return math.Sqrt(Norm2Sq(a)) }

// Norm1 returns the 1-norm ‖a‖₁ = Σ|aᵢ|, used by Quick-Probe's Theorem 4
// upper bound dis(o,q) ≤ ‖o‖₁ + ‖q‖₁.
func Norm1(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += math.Abs(float64(v))
	}
	return s
}

// L2DistSq returns ‖a−b‖₂².
func L2DistSq(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: L2DistSq dimension mismatch %d != %d", len(a), len(b)))
	}
	return l2Kernel(a, b)
}

// L2Dist returns the Euclidean distance ‖a−b‖₂.
func L2Dist(a, b []float32) float64 { return math.Sqrt(L2DistSq(a, b)) }

// Sub returns a−b as a new vector.
func Sub(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Sub dimension mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add returns a+b as a new vector.
func Add(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Add dimension mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Append appends the coordinates of a followed by extra values; it is the
// building block for the QNF and Simple-LSH asymmetric transformations that
// extend points by one dimension.
func Append(a []float32, extra ...float32) []float32 {
	out := make([]float32, 0, len(a)+len(extra))
	out = append(out, a...)
	out = append(out, extra...)
	return out
}

// EncodedSize returns the byte length of a dim-dimensional encoded vector.
func EncodedSize(dim int) int { return 4 * dim }

// Encode writes a into buf (little-endian float32) and returns the number of
// bytes written. buf must have at least EncodedSize(len(a)) bytes.
func Encode(buf []byte, a []float32) int {
	for i, v := range a {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return 4 * len(a)
}

// Decode reads dim float32 values from buf into dst (allocating when dst is
// nil or too short) and returns the decoded vector.
func Decode(buf []byte, dim int, dst []float32) []float32 {
	if cap(dst) < dim {
		dst = make([]float32, dim)
	}
	dst = dst[:dim]
	for i := 0; i < dim; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return dst
}
