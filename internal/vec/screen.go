package vec

import "math"

// The int8 screen. Verification reads a candidate's stored row only to learn
// whether ⟨o,q⟩ beats the current k-th inner product; most candidates do
// not. A copy of the row at one byte per dimension, with the query held at
// two, bounds the value DotBytes would return from above in a quarter of the
// row's bytes, and a candidate whose bound cannot beat the k-th needs no
// read at all.
//
// Rows: o = s·c + r_o with int8 codes c, s = max|oᵢ|/127 rounded to float32,
// and e ≥ ‖r_o‖. Query: q = t·d + r_q with int16 codes d, t = max|qᵢ|/32767
// rounded to float32, and ‖r_q‖ rounded up. Then
//
//	⟨o,q⟩ = t⟨o,d⟩ + ⟨o,r_q⟩ = s·t·⟨c,d⟩ + ⟨r_o,q − r_q⟩ + ⟨o,r_q⟩
//	      ≤ s·t·D + (‖o‖ + e)·‖r_q‖ + e·‖q‖,        D = ⟨c,d⟩ (exact),
//
// and DotBytes — a sequential float64 sum of d exact float32×float32
// products — is within γ_d·Σ|oᵢqᵢ| ≤ γ_d·‖o‖‖q‖ of ⟨o,q⟩ (Higham, Accuracy
// and Stability of Numerical Algorithms, §4.2), so
//
//	B = s·t·D + (‖o‖ + e)·‖r_q‖ + e·‖q‖ + γ_d·‖o‖·‖q‖ ≥ DotBytes(o, q).
//
// Both scales carry at most 24 significant bits, so every s·cᵢ and t·dᵢ is
// exact in float64 and so is each residual component: the residual norms
// are computed to within (d+3) roundings and pushed up by 2⁻³², which covers
// that for any d a 64 KiB page holds. B itself is evaluated in float64 and
// pushed outward by 2⁻³² times the SUM OF THE MAGNITUDES of its terms —
// s·t·D may be large and negative and cancel the others, so a margin
// proportional to B would not cover their rounding.

// boundSlack is the relative outward push of every rounded-up quantity: far
// above the (d+16)·2⁻⁵³ the roundings can cost at d ≤ 16,384, far below
// anything that would weaken the screen.
const boundSlack = 0x1p-32

// roundMagic rounds a float64 of magnitude below 2⁵¹ to the nearest integer
// (ties to even) with two additions: (x + roundMagic) − roundMagic.
const roundMagic = 0x1.8p52

// QuantizeInt8 writes o's int8 codes into dst[:len(o)] and returns the row's
// scale s = max|oᵢ|/127 (as a float32) and resid, a float32 no smaller than
// ‖o − s·c‖₂. A row whose scale would not be a normal float32 — the zero row
// among them — gets zero codes and resid ≥ ‖o‖. o must be finite.
//
// Every component is computed as cᵢ = (oᵢ·(1/s) + roundMagic) − roundMagic
// and rᵢ = oᵢ − s·cᵢ in float64; quantizeBlocks does the leading multiple of
// four components (with SSE2 on amd64), quantizeTail the rest.
func QuantizeInt8(dst []int8, o []float32) (scale, resid float32) {
	dst = dst[:len(o)]
	n4 := len(o) &^ 3
	m := maxAbsTail(o[n4:], maxAbsBlocks(o[:n4]))
	s := float32(float64(m) / 127)
	if s < 0x1p-126 {
		clear(dst)
		return 0, roundUp32(math.Sqrt(Norm2Sq(o)))
	}
	// A normal s carries 24 significant bits, so |oᵢ|/s ≤ 127·(1+2⁻²³) and
	// no code needs clamping. The residual norm's error bound is the same in
	// any summation order.
	sf, inv := float64(s), 1/float64(s)
	sum := quantizeBlocks(dst[:n4], o[:n4], inv, sf) + quantizeTail(dst[n4:], o[n4:], inv, sf)
	return s, roundUp32(math.Sqrt(sum))
}

// quantizeTail quantizes o into dst with the given 1/s and s and returns
// Σ rᵢ²: the portable loop, and the reference quantizeBlocks is held to.
func quantizeTail(dst []int8, o []float32, inv, s float64) float64 {
	dst = dst[:len(o)]
	var sum float64
	for i, x := range o {
		v := float64(x)
		c := (v*inv + roundMagic) - roundMagic
		dst[i] = int8(c)
		r := v - s*c // exact: see the file comment
		sum += r * r
	}
	return sum
}

// maxAbsTail returns max(m, max |vᵢ|), the portable loop. The absolute
// values of finite float32s order as their bit patterns do, so the maximum
// is taken over integers.
func maxAbsTail(v []float32, m float32) float32 {
	b := math.Float32bits(m)
	for _, x := range v {
		b = max(b, math.Float32bits(x)&0x7fffffff)
	}
	return math.Float32frombits(b)
}

// Int8RowLen is the length a scanned int8 row is laid out at, d codes
// zero-padded to a multiple of 16, so that DotInt8Rows scores it in whole
// blocks. Int16Query pads the query's codes to the same length.
func Int8RowLen(d int) int { return (d + 15) &^ 15 }

// Int16Query is a query held for the int8 screen: int16 codes, its scale and
// the bound terms that depend on the query alone. The zero value is ready
// for Quantize, which reuses the code buffer.
type Int16Query struct {
	codes []int16 // Int8RowLen(len(q)) of them, zero past len(q)
	scale float64 // t, a float32 value
	resid float64 // ≥ ‖q − t·d‖₂
	norm  float64 // ‖q‖₂ as the search computes it
	gamma float64 // ≥ γ_d, the sequential dot's relative error bound
}

// Quantize sets z to q's int16 form. q must be finite.
func (z *Int16Query) Quantize(q []float32) {
	n := Int8RowLen(len(q))
	if cap(z.codes) < n {
		z.codes = make([]int16, n)
	}
	z.codes = z.codes[:n]
	clear(z.codes[len(q):])
	z.norm = math.Sqrt(Norm2Sq(q))
	u := float64(len(q)) * 0x1p-53
	z.gamma = u / (1 - u)
	t := float32(float64(maxAbsTail(q, 0)) / 32767)
	z.scale = float64(t)
	if t == 0 {
		clear(z.codes)
		z.resid = roundUp(z.norm)
		return
	}
	inv := 1 / z.scale
	var sum float64
	for i, v := range q {
		// A subnormal t has fewer significant bits: clamp.
		d := min(max((float64(v)*inv+roundMagic)-roundMagic, -32767), 32767)
		z.codes[i] = int16(d)
		r := float64(v) - z.scale*d // exact, as for the rows
		sum += r * r
	}
	z.resid = roundUp(math.Sqrt(sum))
}

// Bound returns B ≥ DotBytes(o, q) for the row o quantized by QuantizeInt8
// into (codes, scale, resid), where normO = math.Sqrt(Norm2Sq(o)) and q is
// the vector z was quantized from. codes holds q's dimension, or up to
// Int8RowLen of it with zero padding.
func (z *Int16Query) Bound(codes []int8, scale, resid float32, normO float64) float64 {
	return z.BoundDot(float64(DotInt8Int16(codes, z.codes)), scale, resid, normO)
}

// BoundDot is Bound for the row whose codes' dot with z's, DotInt8Int16, is
// dot: the bound of a row DotRows scored. (A dot is at most 2²² per
// dimension in magnitude, so it is exact in a float64 at any row length a
// page can hold; taking it as one keeps BoundDot small enough to inline
// into the scans' loops.)
func (z *Int16Query) BoundDot(dot float64, scale, resid float32, normO float64) float64 {
	e := float64(resid)
	t1 := float64(scale) * z.scale * dot
	t2 := (normO + e) * z.resid
	t3 := e * z.norm
	t4 := z.gamma * normO * z.norm
	return t1 + t2 + t3 + t4 + boundSlack*(math.Abs(t1)+t2+t3+t4)
}

// DotInt8Int16 returns Σ aᵢbᵢ exactly. It panics when b is shorter than a.
// dotInt8Blocks scores the leading multiple of eight dimensions (with SSE2
// on amd64), dotInt8Tail the rest.
func DotInt8Int16(a []int8, b []int16) int64 {
	b = b[:len(a)]
	n8 := len(a) &^ 7
	return dotInt8Blocks(a[:n8], b[:n8]) + dotInt8Tail(a[n8:], b[n8:])
}

// DotRows sets dst[i] to the DotInt8Int16 of row i of a with z's codes,
// for len(dst) rows of Int8RowLen(len(q)) codes each, back to back from
// a[0] on, q the vector z was quantized from (DotInt8Rows).
func (z *Int16Query) DotRows(a []int8, dst []int64) { DotInt8Rows(a, z.codes, dst) }

// DotInt8Rows sets dst[i] = DotInt8Int16(a[i·m:(i+1)·m], b), m = len(b), for
// every i: the sequential scans' kernel. On amd64 with AVX2, whole groups of
// four rows run in dotInt8Rows4 over the leading multiple of 16 dimensions
// (every dimension of a row Int8RowLen laid out), the dimensions past it in
// dotInt8Tail; the last one to three rows, and every row without AVX2, go
// through DotInt8Int16. Every path sums the same products exactly, so every
// path returns the same totals. It panics when a holds fewer than len(dst)
// rows.
func DotInt8Rows(a []int8, b []int16, dst []int64) {
	m, rows := len(b), len(dst)
	a = a[:rows*m]
	i := 0
	if m16 := m &^ 15; useAVX2 && m16 > 0 && rows >= 4 {
		i = rows &^ 3
		dotInt8Rows4(&a[0], m, i/4, &b[0], m16, &dst[0])
		if m16 < m {
			for r := range i {
				dst[r] += dotInt8Tail(a[r*m+m16:(r+1)*m], b[m16:])
			}
		}
	}
	for ; i < rows; i++ {
		dst[i] = DotInt8Int16(a[i*m:(i+1)*m], b)
	}
}

// dotInt8Tail is DotInt8Int16's portable loop, and the reference
// dotInt8Blocks is held to. A product is at most 2²² in magnitude
// ((−128)·(−32768) = 2²²), so eight of them sum exactly in int32; the blocks
// of eight sum in int64, which no page-sized row can overflow (a whole row
// summed in int32 overflows from about 520 dimensions at full-scale codes).
func dotInt8Tail(a []int8, b []int16) int64 {
	n := len(a)
	b = b[:n]
	var s int64
	i := 0
	for ; i+8 <= n; i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		s += int64(int32(x[0])*int32(y[0]) + int32(x[1])*int32(y[1]) + int32(x[2])*int32(y[2]) + int32(x[3])*int32(y[3]) +
			int32(x[4])*int32(y[4]) + int32(x[5])*int32(y[5]) + int32(x[6])*int32(y[6]) + int32(x[7])*int32(y[7]))
	}
	for ; i < n; i++ {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}

// roundUp returns x pushed up by boundSlack: at least the real norm a
// computed one approximates.
func roundUp(x float64) float64 { return x * (1 + boundSlack) }

// roundUp32 is roundUp to a float32 that is no smaller.
func roundUp32(x float64) float32 {
	x = roundUp(x)
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}
