// Package randproj implements the 2-stable (Gaussian) random projections of
// the paper's §II-B, the m-bit sign codes Quick-Probe groups points by, the
// Theorem-3 lower bound on projected distance, the Theorem-4 upper bound on
// original distance, and the optimized projected dimension of §V-B.
//
// For a d-dimensional point o and m Gaussian vectors v₁..vₘ (entries i.i.d.
// N(0,1)), the projection is P(o) = (v₁·o, …, vₘ·o). Lemma 1 gives
// fᵢ(o)−fᵢ(q) ~ N(0, dis²(o,q)), hence Lemma 2:
// dis²(P(o),P(q))/dis²(o,q) ~ χ²(m).
package randproj

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"promips/internal/vec"
)

// MaxM bounds the projected dimension so sign codes fit a uint32 group key.
// The paper's optimized m is 6–10 on all datasets, far below this cap.
const MaxM = 30

// Projector holds the m Gaussian projection vectors for a d-dimensional
// space. A Projector is immutable after construction and safe for
// concurrent use.
type Projector struct {
	d, m int
	rows [][]float32 // m rows of d Gaussian entries
}

// New builds a Projector for d-dimensional input and m output dimensions,
// seeded deterministically.
func New(d, m int, seed int64) *Projector {
	if d <= 0 || m <= 0 {
		panic(fmt.Sprintf("randproj: need d > 0 and m > 0, got d=%d m=%d", d, m))
	}
	if m > MaxM {
		panic(fmt.Sprintf("randproj: m=%d exceeds MaxM=%d", m, MaxM))
	}
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float32, m)
	for i := range rows {
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(r.NormFloat64())
		}
		rows[i] = row
	}
	return &Projector{d: d, m: m, rows: rows}
}

// D returns the original dimensionality.
func (p *Projector) D() int { return p.d }

// M returns the projected dimensionality.
func (p *Projector) M() int { return p.m }

// Project returns P(o), the m 2-stable projections of o.
func (p *Projector) Project(o []float32) []float32 {
	return p.ProjectInto(o, nil)
}

// ProjectInto computes P(o) into dst (reused when its capacity suffices),
// so per-query callers can project without allocating.
func (p *Projector) ProjectInto(o []float32, dst []float32) []float32 {
	if len(o) != p.d {
		panic(fmt.Sprintf("randproj: point has dim %d, want %d", len(o), p.d))
	}
	if cap(dst) < p.m {
		dst = make([]float32, p.m)
	}
	dst = dst[:p.m]
	// Each Pᵢ(o) is one float64 sum in ascending coordinate order. Rows go
	// through vec.Dot4 four at a time — four independent add chains instead
	// of one latency-bound chain per row — which keeps every sum's order.
	rows := p.rows
	i := 0
	for ; i+4 <= p.m; i += 4 {
		s0, s1, s2, s3 := vec.Dot4(rows[i], rows[i+1], rows[i+2], rows[i+3], o)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = float32(s0), float32(s1), float32(s2), float32(s3)
	}
	for ; i < p.m; i++ {
		dst[i] = float32(vec.Dot(rows[i], o))
	}
	return dst
}

// ProjectAll projects every point of data.
func (p *Projector) ProjectAll(data [][]float32) [][]float32 {
	out := make([][]float32, len(data))
	for i, o := range data {
		out[i] = p.Project(o)
	}
	return out
}

// Code returns the m-bit sign code of a projected point: bit i is 1 when
// Pᵢ(o) ≥ 0. Quick-Probe groups points by this code.
func Code(projected []float32) uint32 {
	if len(projected) > MaxM {
		panic(fmt.Sprintf("randproj: projected dim %d exceeds MaxM", len(projected)))
	}
	var c uint32
	for i, v := range projected {
		if v >= 0 {
			c |= 1 << uint(i)
		}
	}
	return c
}

// GroupLowerBound computes Theorem 3's lower bound on the projected-space
// Euclidean distance between any point with sign code codeO and the
// projected query pq with code codeQ:
//
//	dis(P(o), P(q)) ≥ (1/√m) · Σᵢ (cᵢ(o)⊕cᵢ(q)) · |Pᵢ(q)|
//
// Coordinates where the signs agree contribute nothing; where they differ,
// |Pᵢ(o)−Pᵢ(q)| ≥ |Pᵢ(q)|.
func GroupLowerBound(codeO, codeQ uint32, pq []float32) float64 {
	x := codeO ^ codeQ
	var s float64
	for i := range pq {
		if x&(1<<uint(i)) != 0 {
			s += math.Abs(float64(pq[i]))
		}
	}
	return s / math.Sqrt(float64(len(pq)))
}

// DistUpperBound is Theorem 4's upper bound on the original-space distance:
// dis(o,q) ≤ ‖o‖₁ + ‖q‖₁. The arguments are the two 1-norms.
func DistUpperBound(norm1O, norm1Q float64) float64 { return norm1O + norm1Q }

// OptimizedM returns argmin f(m) = 2^m·(m+1) + n/2^m over integer m (§V-B):
// the trade-off between scanning the 2^m group lower bounds and scanning the
// n/2^m points of one group. The result is clamped to [2, MaxM]. f is
// strictly convex in m, so the first local minimum is global.
func OptimizedM(n int) int {
	if n < 1 {
		n = 1
	}
	f := func(m int) float64 {
		p := math.Pow(2, float64(m))
		return p*float64(m+1) + float64(n)/p
	}
	best, bestV := 2, f(2)
	for m := 3; m <= MaxM; m++ {
		v := f(m)
		if v < bestV {
			best, bestV = m, v
		} else {
			break // convex: once it grows, it keeps growing
		}
	}
	return best
}

// EncodedSize returns the byte length of a serialized Projector with the
// given dimensions.
func EncodedSize(d, m int) int { return 16 + 4*d*m }

// Encode serializes the Projector (for persisting an index to disk).
func (p *Projector) Encode() []byte {
	buf := make([]byte, EncodedSize(p.d, p.m))
	binary.LittleEndian.PutUint64(buf, uint64(p.d))
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.m))
	off := 16
	for _, row := range p.rows {
		for _, v := range row {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return buf
}

// Decode reconstructs a Projector serialized by Encode.
func Decode(buf []byte) (*Projector, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("randproj: truncated projector header (%d bytes)", len(buf))
	}
	d := int(binary.LittleEndian.Uint64(buf))
	m := int(binary.LittleEndian.Uint64(buf[8:]))
	if d <= 0 || m <= 0 || m > MaxM {
		return nil, fmt.Errorf("randproj: invalid dims d=%d m=%d", d, m)
	}
	if len(buf) < EncodedSize(d, m) {
		return nil, fmt.Errorf("randproj: truncated projector body: %d < %d", len(buf), EncodedSize(d, m))
	}
	rows := make([][]float32, m)
	off := 16
	for i := range rows {
		row := make([]float32, d)
		for j := range row {
			row[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		rows[i] = row
	}
	return &Projector{d: d, m: m, rows: rows}, nil
}
