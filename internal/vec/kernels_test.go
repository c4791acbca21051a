package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// encodeAt returns v encoded little-endian into a buffer with the given
// leading pad, so tests can control the alignment of the encoded bytes.
func encodeAt(v []float32, pad int) []byte {
	buf := make([]byte, pad+EncodedSize(len(v)))
	Encode(buf[pad:], v)
	return buf[pad:]
}

// randVec draws n float32s including adversarial payloads: NaN, ±Inf,
// negative zero, denormals and huge magnitudes.
func advVec(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(12) {
		case 0:
			out[i] = float32(math.NaN())
		case 1:
			out[i] = float32(math.Inf(1))
		case 2:
			out[i] = float32(math.Inf(-1))
		case 3:
			out[i] = float32(math.Copysign(0, -1))
		case 4:
			out[i] = math.Float32frombits(rng.Uint32()) // any bit pattern
		case 5:
			out[i] = float32(rng.NormFloat64()) * 1e30
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

// bitsEqual compares float64s as bits (so -0 != +0 and Inf must match
// exactly), except that any NaN equals any NaN: IEEE 754 leaves the
// propagated payload unspecified, and the compiler may commute multiply
// operands differently between two inlined copies of the same loop, which
// flips the propagated NaN's sign bit. Every non-NaN result is fully
// determined by the operation sequence and must match bit-for-bit.
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestFusedKernelsBitIdentical is the property test of the zero-copy page
// kernels: for random lengths (including odd ones that exercise the unroll
// tail) and adversarial payloads, DotBytes and L2DistSqBytes must be
// bit-identical to Decode + Dot / L2DistSq, and the same must hold for the
// portable (non-aliasing) fallbacks.
func TestFusedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(70) // 0..69 covers empty, tails of every residue, larger runs
		o := advVec(rng, n)
		q := advVec(rng, n)
		buf := encodeAt(o, 0)

		decoded := Decode(buf, n, nil)
		wantDot := Dot(decoded, q)
		wantL2 := L2DistSq(decoded, q)

		if got := DotBytes(buf, q); !bitsEqual(got, wantDot) {
			t.Fatalf("n=%d DotBytes=%x want %x", n, math.Float64bits(got), math.Float64bits(wantDot))
		}
		if got := L2DistSqBytes(buf, q); !bitsEqual(got, wantL2) {
			t.Fatalf("n=%d L2DistSqBytes=%x want %x", n, math.Float64bits(got), math.Float64bits(wantL2))
		}
		if got := dotBytesPortable(buf, q); !bitsEqual(got, wantDot) {
			t.Fatalf("n=%d portable dot=%x want %x", n, math.Float64bits(got), math.Float64bits(wantDot))
		}
		if got := l2DistSqBytesPortable(buf, q); !bitsEqual(got, wantL2) {
			t.Fatalf("n=%d portable l2=%x want %x", n, math.Float64bits(got), math.Float64bits(wantL2))
		}

		// Unaligned encoding: the view must be granted exactly when the
		// buffer start is float-aligned (a 1-padded slice usually is not,
		// but the tiny allocator can place small odd-sized buffers at any
		// alignment), and the fused fallback must be bit-identical either
		// way.
		un := encodeAt(o, 1)
		if n > 0 {
			aligned := uintptr(unsafe.Pointer(&un[0]))%4 == 0
			if _, ok := F32View(un, n); ok != (aligned && hostLittleEndian) {
				t.Fatalf("n=%d F32View ok=%v, want %v", n, ok, aligned && hostLittleEndian)
			}
		}
		if got := DotBytes(un, q); !bitsEqual(got, wantDot) {
			t.Fatalf("n=%d unaligned DotBytes=%x want %x", n, math.Float64bits(got), math.Float64bits(wantDot))
		}
		if got := L2DistSqBytes(un, q); !bitsEqual(got, wantL2) {
			t.Fatalf("n=%d unaligned L2DistSqBytes=%x want %x", n, math.Float64bits(got), math.Float64bits(wantL2))
		}
	}
}

// TestDot4BitIdentical pins the row-interleaved kernel to Dot: four rows
// scored in one loop must each equal their own Dot bit for bit, on lengths
// around Dot's 4-way unroll (tails, d not divisible by 4, empty) and on
// adversarial payloads.
func TestDot4BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 299, 300, 301} {
		for trial := 0; trial < 50; trial++ {
			gen := randVec
			if trial%2 == 1 {
				gen = advVec
			}
			rows := [4][]float32{gen(rng, n), gen(rng, n), gen(rng, n), gen(rng, n)}
			q := gen(rng, n)
			var got [4]float64
			got[0], got[1], got[2], got[3] = Dot4(rows[0], rows[1], rows[2], rows[3], q)
			for r, row := range rows {
				if want := Dot(row, q); !bitsEqual(got[r], want) {
					t.Fatalf("n=%d trial=%d row %d: Dot4 %v != Dot %v", n, trial, r, got[r], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot4 accepted a short row")
		}
	}()
	Dot4(make([]float32, 3), make([]float32, 4), make([]float32, 4), make([]float32, 4), make([]float32, 4))
}

// dot8Paths runs f once on the portable loop and, when the host has AVX2,
// once more on the vector blocks, naming the path it runs.
func dot8Paths(f func(path string)) {
	defer func(avx2 bool) { useAVX2 = avx2 }(useAVX2)
	paths := []bool{false}
	if useAVX2 {
		paths = append(paths, true)
	}
	for _, avx2 := range paths {
		useAVX2 = avx2
		path := "portable"
		if avx2 {
			path = "avx2"
		}
		f(path)
	}
}

// checkDot8 scores rows against q with Dot8 and holds every row's result
// to its own Dot bit for bit.
func checkDot8(t testing.TB, name string, rows [8][]float32, q []float32) {
	t.Helper()
	var got [8]float64
	Dot8(&rows, q, &got)
	for r, row := range rows {
		if want := Dot(row, q); !bitsEqual(got[r], want) {
			t.Fatalf("%s n=%d row %d: Dot8 %x != Dot %x", name, len(q), r, math.Float64bits(got[r]), math.Float64bits(want))
		}
	}
}

// dot8Extremes are the components whose products test the claim that
// widening and multiplying are exact: float32 subnormals (their products
// are far below float32's range but normal in float64), the largest finite
// float32s (products near 10⁷⁷), tiny normals and both zeros.
var dot8Extremes = []float32{
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400001), // subnormals
	math.MaxFloat32, -math.MaxFloat32, 3.1e38, -1.7e38, // huge
	1.2e-38, -3.5e-38, 1e-30, // tiny
	0, float32(math.Copysign(0, -1)),
}

// TestDot8BitIdentical holds each of the eight rows to its own Dot, on both
// paths, for every dimension 0–40 (empty, every residue of the four-wide
// block, tails after whole blocks) and 300, on gaussian components, on the
// extremes alone and on gaussian rows salted with them.
func TestDot8BitIdentical(t *testing.T) {
	dot8Paths(func(path string) {
		t.Logf("path %s", path)
		rng := rand.New(rand.NewSource(80))
		extreme := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = dot8Extremes[rng.Intn(len(dot8Extremes))]
			}
			return v
		}
		salted := func(n int) []float32 {
			v := randVec(rng, n)
			for i := range v {
				if rng.Intn(3) == 0 {
					v[i] = dot8Extremes[rng.Intn(len(dot8Extremes))]
				}
			}
			return v
		}
		gens := map[string]func(int) []float32{
			"gaussian": func(n int) []float32 { return randVec(rng, n) },
			"extremes": extreme,
			"salted":   salted,
		}
		dims := []int{300}
		for n := 0; n <= 40; n++ {
			dims = append(dims, n)
		}
		for gname, gen := range gens {
			for _, n := range dims {
				for trial := 0; trial < 8; trial++ {
					var rows [8][]float32
					for r := range rows {
						rows[r] = gen(n)
					}
					checkDot8(t, path+"/"+gname, rows, gen(n))
				}
			}
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Dot8 accepted a short row")
		}
	}()
	var rows [8][]float32
	for r := range rows {
		rows[r] = make([]float32, 8)
	}
	rows[5] = rows[5][:7]
	Dot8(&rows, make([]float32, 8), new([8]float64))
}

// FuzzDot8 cross-checks the eight-row kernel against Dot on both paths on
// fuzzer-chosen bytes: the input is cut into nine equal vectors, eight rows
// and the query, so every float32 bit pattern can reach every lane.
func FuzzDot8(f *testing.F) {
	f.Add(make([]byte, 36))
	seed := make([]byte, 9*4*7)
	for i, x := range dot8Extremes {
		for j := i; j < len(seed)/4; j += len(dot8Extremes) {
			binary.LittleEndian.PutUint32(seed[4*j:], math.Float32bits(x))
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 36
		var rows [8][]float32
		for r := range rows {
			rows[r] = Decode(raw[4*n*r:], n, nil)
		}
		q := Decode(raw[4*n*8:], n, nil)
		dot8Paths(func(path string) { checkDot8(t, path, rows, q) })
	})
}

// l2Extremes are dot8Extremes plus the infinities: a difference or a sum
// that overflows float64 needs an infinite component (the square of the
// largest float32 difference is below 10⁷⁸), and ∞−∞ is NaN.
var l2Extremes = append([]float32{float32(math.Inf(1)), float32(math.Inf(-1))}, dot8Extremes...)

// l2RowsLayouts lays rows out the ways the squared-distance kernel is fed
// and scores them against q through the matching entry point: iDistance's
// page entries (L2DistSqRows over a 4-byte id then the coordinates, aligned
// and one byte off, and a stride that is not a whole number of floats), a
// codebook (L2DistSqSlab, rows back to back), a slab with a gap between
// rows, and scattered rows (L2DistSqEach).
var l2RowsLayouts = map[string]func(rows [][]float32, q []float32, dst []float64){
	"idistance": func(rows [][]float32, q []float32, dst []float64) { l2RowsEncoded(rows, q, dst, 0, 0) },
	"unaligned": func(rows [][]float32, q []float32, dst []float64) { l2RowsEncoded(rows, q, dst, 1, 0) },
	"oddstride": func(rows [][]float32, q []float32, dst []float64) { l2RowsEncoded(rows, q, dst, 0, 2) },
	"codebook":  func(rows [][]float32, q []float32, dst []float64) { l2RowsSlab(rows, q, dst, 0) },
	"gapped":    func(rows [][]float32, q []float32, dst []float64) { l2RowsSlab(rows, q, dst, 3) },
	"each":      func(rows [][]float32, q []float32, dst []float64) { L2DistSqEach(rows, q, dst) },
}

// l2RowsEncoded encodes rows as iDistance page entries, pad bytes into the
// buffer and extra bytes past the entry size apart, and scores the run.
func l2RowsEncoded(rows [][]float32, q []float32, dst []float64, pad, extra int) {
	stride := 4 + EncodedSize(len(q)) + extra
	buf := make([]byte, pad+len(rows)*stride)[pad:]
	for i, row := range rows {
		Encode(buf[i*stride+4:], row)
	}
	L2DistSqRows(buf[min(4, len(buf)):], stride, q, dst)
}

// l2RowsSlab copies rows into one slab, gap floats between them, and scores
// it. The slab ends at the last row's last float.
func l2RowsSlab(rows [][]float32, q []float32, dst []float64, gap int) {
	stride := len(q) + gap
	slab := make([]float32, max(0, len(rows)*stride-gap))
	for i, row := range rows {
		copy(slab[i*stride:], row)
	}
	L2DistSqSlab(slab, stride, q, dst)
}

// checkL2Rows scores rows against q in every layout and holds each row to
// its own L2DistSq bit for bit.
func checkL2Rows(t testing.TB, name string, rows [][]float32, q []float32) {
	t.Helper()
	dst := make([]float64, len(rows))
	for layout, score := range l2RowsLayouts {
		clear(dst)
		score(rows, q, dst)
		for i, row := range rows {
			if want := L2DistSq(row, q); !bitsEqual(dst[i], want) {
				t.Fatalf("%s/%s m=%d rows=%d row %d: %x != L2DistSq %x", name, layout, len(q), len(rows), i, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	}
}

// TestL2RowsBitIdentical holds every row of the squared-distance kernel to
// its own L2DistSq, on both paths, in every layout it is fed (l2RowsLayouts),
// for every dimension 0–40 (every residue of the four-, two- and
// one-dimension blocks) and 300, for 0–9 rows (every residue of the group of
// four), a 146-entry page and 256 rows, on gaussian components, on the
// extremes alone (subnormal, huge, infinite, tiny, ±0), on gaussian rows
// salted with them and on adversarial payloads (NaN, any bit pattern).
func TestL2RowsBitIdentical(t *testing.T) {
	dot8Paths(func(path string) {
		rng := rand.New(rand.NewSource(81))
		extreme := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = l2Extremes[rng.Intn(len(l2Extremes))]
			}
			return v
		}
		salted := func(n int) []float32 {
			v := randVec(rng, n)
			for i := range v {
				if rng.Intn(3) == 0 {
					v[i] = l2Extremes[rng.Intn(len(l2Extremes))]
				}
			}
			return v
		}
		gens := map[string]func(int) []float32{
			"gaussian":    func(n int) []float32 { return randVec(rng, n) },
			"extremes":    extreme,
			"salted":      salted,
			"adversarial": func(n int) []float32 { return advVec(rng, n) },
		}
		dims := []int{300}
		for m := 0; m <= 40; m++ {
			dims = append(dims, m)
		}
		for gname, gen := range gens {
			for _, m := range dims {
				for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 146, 256} {
					rows := make([][]float32, n)
					for i := range rows {
						rows[i] = gen(m)
					}
					checkL2Rows(t, path+"/"+gname, rows, gen(m))
				}
			}
		}
	})
	for name, short := range map[string]func(){
		"L2DistSqSlab":            func() { L2DistSqSlab(make([]float32, 9), 4, make([]float32, 2), make([]float64, 3)) },
		"L2DistSqSlab overlapped": func() { L2DistSqSlab(make([]float32, 9), 1, make([]float32, 2), make([]float64, 3)) },
		"L2DistSqEach": func() {
			L2DistSqEach([][]float32{make([]float32, 2), make([]float32, 1)}, make([]float32, 2), make([]float64, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a short or overlapped row", name)
				}
			}()
			short()
		}()
	}
}

// TestL2DistSqRows: every distance of a strided run — iDistance's page
// entries, a 4-byte id then the coordinates — is L2DistSqBytes of its row
// bit for bit, for run lengths around the four-row pass (empty, tails of
// every residue, a full page), on aligned and unaligned runs, on strides
// that are not a whole number of floats (the per-row fallback) and on
// adversarial payloads.
func TestL2DistSqRows(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, m := range []int{1, 3, 6, 19} {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 146} {
			for trial := range 4 {
				stride := 4 + EncodedSize(m)
				if trial == 3 {
					stride += 2 // not a whole number of floats
				}
				gen := randVec
				if trial%2 == 1 {
					gen = advVec
				}
				pad := 0
				if trial == 2 {
					pad = 1
				}
				buf := make([]byte, pad+rows*stride)[pad:]
				for i := range rows {
					Encode(buf[i*stride+4:], gen(rng, m))
				}
				q := gen(rng, m)
				dst := make([]float64, rows)
				if rows > 0 {
					L2DistSqRows(buf[4:], stride, q, dst)
				}
				for i, got := range dst {
					if want := L2DistSqBytes(buf[i*stride+4:], q); !bitsEqual(got, want) {
						t.Fatalf("m=%d rows=%d trial=%d row %d: L2DistSqRows %v, L2DistSqBytes %v", m, rows, trial, i, got, want)
					}
				}
			}
		}
	}
}

// FuzzL2Rows cross-checks the squared-distance kernel against L2DistSq on
// both paths and in every layout on fuzzer-chosen bytes: the first byte
// picks the number of rows (0–15), and the rest is cut into that many rows
// and the query, so every float32 bit pattern can reach every lane.
func FuzzL2Rows(f *testing.F) {
	f.Add([]byte{5}, []byte{})
	seed := make([]byte, 6*4*7)
	for i, x := range l2Extremes {
		for j := i; j < len(seed)/4; j += len(l2Extremes) {
			binary.LittleEndian.PutUint32(seed[4*j:], math.Float32bits(x))
		}
	}
	f.Add([]byte{5}, seed)
	f.Fuzz(func(t *testing.T, count, raw []byte) {
		n := 0
		if len(count) > 0 {
			n = int(count[0] % 16)
		}
		m := len(raw) / (4 * (n + 1))
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = Decode(raw[4*m*i:], m, nil)
		}
		q := Decode(raw[4*m*n:], m, nil)
		dot8Paths(func(path string) { checkL2Rows(t, path, rows, q) })
	})
}

// TestF32View checks the aliasing contract: same values as Decode, shared
// memory, empty views, and the short-buffer panic.
func TestF32View(t *testing.T) {
	o := []float32{1.5, -2.25, float32(math.Inf(1)), 0}
	buf := encodeAt(o, 0)
	v, ok := F32View(buf, len(o))
	if !ok {
		if hostLittleEndian {
			t.Fatal("F32View refused an aligned buffer on a little-endian host")
		}
		t.Skip("big-endian host: no aliased view")
	}
	for i := range o {
		if math.Float32bits(v[i]) != math.Float32bits(o[i]) {
			t.Fatalf("view[%d]=%v want %v", i, v[i], o[i])
		}
	}
	// The view aliases, not copies: a byte edit must show through.
	buf[0]++
	if math.Float32bits(v[0]) == math.Float32bits(o[0]) {
		t.Fatal("F32View copied instead of aliasing")
	}

	if v, ok := F32View(nil, 0); !ok || len(v) != 0 {
		t.Fatal("empty view should succeed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short buffer")
		}
	}()
	F32View(buf, len(o)+1)
}

// FuzzDotBytes cross-checks the fused kernel against decode-then-reduce on
// fuzzer-chosen bytes.
func FuzzDotBytes(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}, uint8(2))
	f.Add([]byte{255, 255, 255, 127, 1, 0, 0, 0, 9, 9, 9, 9}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8) {
		n := int(dim) % 33
		if len(raw) < 4*n {
			t.Skip()
		}
		q := make([]float32, n)
		for i := range q {
			q[i] = float32(i) - 7.5
		}
		decoded := Decode(raw, n, nil)
		if got, want := DotBytes(raw, q), Dot(decoded, q); !bitsEqual(got, want) {
			t.Fatalf("DotBytes=%x want %x", math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := L2DistSqBytes(raw, q), L2DistSq(decoded, q); !bitsEqual(got, want) {
			t.Fatalf("L2DistSqBytes=%x want %x", math.Float64bits(got), math.Float64bits(want))
		}
	})
}

func BenchmarkDotDecodeThenReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	o, q := advVec(rng, 300), advVec(rng, 300)
	buf := encodeAt(o, 0)
	dst := make([]float32, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Decode(buf, 300, dst)
		_ = Dot(dst, q)
	}
}

func BenchmarkDotBytesFused(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	o, q := advVec(rng, 300), advVec(rng, 300)
	buf := encodeAt(o, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DotBytes(buf, q)
	}
}

var sinkDot float64

// BenchmarkDotRows300, BenchmarkDot4Rows300 and BenchmarkDot8Rows300 score
// the same 4,096 rows against one query; ns/op is per ROW in all three.
func BenchmarkDotRows300(b *testing.B) {
	rows, q := benchRows(4096, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDot += Dot(rows[i%len(rows)], q)
	}
}

func BenchmarkDot4Rows300(b *testing.B) {
	rows, q := benchRows(4096, 300)
	b.ResetTimer()
	for i := 0; i+4 <= b.N; i += 4 {
		j := i % len(rows)
		s0, s1, s2, s3 := Dot4(rows[j], rows[j+1], rows[j+2], rows[j+3], q)
		sinkDot += s0 + s1 + s2 + s3
	}
}

func BenchmarkDot8Rows300(b *testing.B) {
	rows, q := benchRows(4096, 300)
	var dst [8]float64
	b.ResetTimer()
	for i := 0; i+8 <= b.N; i += 8 {
		j := i % len(rows)
		Dot8((*[8][]float32)(rows[j:j+8]), q, &dst)
		sinkDot += dst[0]
	}
}

// BenchmarkL2DistSqRows19 and BenchmarkL2DistSqSlab19 score the same rows
// against one chunk at the PQ sketch's subspace width (d=300 over 16
// subspaces), where index construction spends most of its time; ns/op is
// per ROW in both.
func BenchmarkL2DistSqRows19(b *testing.B) {
	rows, q := benchRows(4096, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDot += L2DistSq(rows[i%len(rows)], q)
	}
}

func BenchmarkL2DistSqSlab19(b *testing.B) {
	rows, q := benchRows(4096, 19)
	slab := make([]float32, 0, len(rows)*len(q))
	for _, row := range rows {
		slab = append(slab, row...)
	}
	dst := make([]float64, 16) // one codebook
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		j := i % len(rows)
		L2DistSqSlab(slab[j*len(q):], len(q), q, dst)
		sinkDot += dst[0]
	}
}

// BenchmarkL2DistSqRowsPage6 scores one 4 KiB iDistance page at m = 6 —
// 146 entries of an id and six coordinates — the way a query's collection
// does; ns/op is per ROW.
func BenchmarkL2DistSqRowsPage6(b *testing.B) {
	const m, stride = 6, 4 + 4*6
	rows, q := benchRows(4096/stride, m)
	page := make([]byte, 4096)
	for i, row := range rows {
		Encode(page[i*stride+4:], row)
	}
	dst := make([]float64, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		L2DistSqRows(page[4:], stride, q, dst)
		sinkDot += dst[0]
	}
}

func benchRows(n, d int) ([][]float32, []float32) {
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = randVec(rng, d)
	}
	return rows, randVec(rng, d)
}
