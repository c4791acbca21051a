package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// screenBound quantizes o and q as the search does and returns the screen's
// bound and the value verification would compute, DotBytes over o's page
// bytes.
func screenBound(t testing.TB, o, q []float32) (bound, dot float64) {
	t.Helper()
	codes := make([]int8, len(o))
	scale, resid := QuantizeInt8(codes, o)
	for i, c := range codes {
		if c < -127 {
			t.Fatalf("code %d is %d, outside [-127, 127]", i, c)
		}
	}
	var z Int16Query
	z.Quantize(q)
	for i, d := range z.codes {
		if d < -32767 {
			t.Fatalf("query code %d is %d, outside [-32767, 32767]", i, d)
		}
	}
	return z.Bound(codes, scale, resid, math.Sqrt(Norm2Sq(o))), DotBytes(encodeAt(o, 0), q)
}

func checkBound(t testing.TB, name string, o, q []float32) {
	t.Helper()
	if b, dot := screenBound(t, o, q); !(b >= dot) {
		t.Fatalf("%s: bound %v (%x) below DotBytes %v (%x)", name, b, math.Float64bits(b), dot, math.Float64bits(dot))
	}
}

func gaussVec(rng *rand.Rand, n int, scale float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * scale)
	}
	return v
}

func filled(n int, x float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = x
	}
	return v
}

// TestScreenBoundAdversarial holds the bound to DotBytes on the inputs each
// of its terms exists for.
func TestScreenBoundAdversarial(t *testing.T) {
	// One component 10⁶× the rest: the query's rounding error on it, times
	// ‖o‖, is most of the gap between s·t·D and ⟨o,q⟩ — the (‖o‖+e)·‖r_q‖
	// term. The query's largest component is exact in int16, so the small
	// one at the big row component carries the error.
	qt := float64(float32(1.0 / 32767))
	for _, d := range []int{2, 8, 300} {
		o := filled(d, 1)
		o[0] = 1e6
		q := filled(d, 1)
		q[0] = float32(1.49 * qt)
		checkBound(t, "dominant component", o, q)
		q[0] = float32(-1.49 * qt)
		checkBound(t, "dominant component, negative", o, q)
	}
	// Every product at full scale: D = d·127·32767 needs more than 32 bits
	// from 520 dimensions on, and more than 31 in each of four lanes from
	// 2,080 (the paper's P53 has d = 5,408; a 64 KiB page holds 16,384).
	for _, d := range []int{5408, 16384} {
		checkBound(t, "full scale", filled(d, 3), filled(d, 7))
		checkBound(t, "full scale, negative", filled(d, -3), filled(d, 7))
		rng := rand.New(rand.NewSource(int64(d)))
		checkBound(t, "gaussian, large d", gaussVec(rng, d, 1), gaussVec(rng, d, 1))
	}
	// Magnitudes at both ends of float32, subnormals, and zeros.
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 3, 8, 300} {
		for _, so := range []float64{1e-30, 1, 1e30} {
			for _, sq := range []float64{1e-30, 1, 1e30} {
				for rep := 0; rep < 20; rep++ {
					checkBound(t, "magnitudes", gaussVec(rng, d, so), gaussVec(rng, d, sq))
				}
			}
		}
		sub := gaussVec(rng, d, 1e-40) // subnormal float32s
		checkBound(t, "subnormal row", sub, gaussVec(rng, d, 1))
		checkBound(t, "subnormal query", gaussVec(rng, d, 1), sub)
		checkBound(t, "subnormal both", sub, gaussVec(rng, d, 1e-41))
		tiny := filled(d, math.Float32frombits(1)) // no nonzero float32 scale
		checkBound(t, "smallest subnormal", tiny, filled(d, 1))
		checkBound(t, "smallest subnormal query", filled(d, -1), tiny)
		checkBound(t, "zero row", make([]float32, d), gaussVec(rng, d, 1))
		checkBound(t, "zero query", gaussVec(rng, d, 1), make([]float32, d))
		checkBound(t, "float32 max", filled(d, math.MaxFloat32), filled(d, -math.MaxFloat32))
		for rep := 0; rep < 200; rep++ {
			o, q := gaussVec(rng, d, 1), gaussVec(rng, d, 1)
			checkBound(t, "gaussian", o, q)
			// q along o: the pairs the screen is hardest on.
			for i := range q {
				q[i] = o[i] * float32(1+rng.NormFloat64()*1e-3)
			}
			checkBound(t, "aligned", o, q)
		}
	}
}

// TestScreenBoundIsTight: a sound bound is only useful when it is close. On
// Gaussian rows at the dimension of the paper's Netflix set the gap to the
// dot product stays below 3 % of ‖o‖‖q‖ (the int8 rounding error of o,
// about 0.6 %, against a query along its residual at worst).
func TestScreenBoundIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for rep := 0; rep < 200; rep++ {
		o, q := gaussVec(rng, 300, 1), gaussVec(rng, 300, 1)
		b, dot := screenBound(t, o, q)
		if slack := (b - dot) / (Norm2(o) * Norm2(q)); slack > 0.03 {
			t.Fatalf("bound %v over a dot product of %v: slack %.3f·‖o‖‖q‖", b, dot, slack)
		}
	}
}

// refDotInt8Int16 is Σ aᵢbᵢ in int64, one product at a time.
func refDotInt8Int16(a []int8, b []int16) int64 {
	var s int64
	for i := range a {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}

// TestDotInt8Int16 holds the kernel and the portable loop to the int64 sum
// over the full int8×int16 range: full-scale products of either sign, which
// PMADDWD's int32 lanes carry the longest before a flush, alternating signs,
// lengths around the 255-block flush interval and slices that start off any
// 16-byte boundary.
func TestDotInt8Int16(t *testing.T) {
	check := func(name string, a []int8, b []int16) {
		t.Helper()
		want := refDotInt8Int16(a, b)
		if got := DotInt8Int16(a, b); got != want {
			t.Fatalf("%s, n=%d: DotInt8Int16=%d want %d", name, len(a), got, want)
		}
		if got := dotInt8Tail(a, b); got != want {
			t.Fatalf("%s, n=%d: dotInt8Tail=%d want %d", name, len(a), got, want)
		}
		// Nine rows — two groups of four and one more — each a rotation of
		// a, back to back, the slab starting on and off a 16-byte boundary.
		n := len(a)
		for _, off := range []int{0, 3} {
			slab := make([]int8, off+9*n)[off:]
			for r := range 9 {
				for i := range n {
					slab[r*n+i] = a[(i+5*r)%n]
				}
			}
			checkRows(t, name, slab, b[:n], 9)
		}
	}
	// Each corner is a repeated pair of codes; alternate flips a's sign on
	// every other dimension.
	corners := []struct {
		name      string
		x         int8
		y         int16
		alternate bool
	}{
		{"every product (-128)·(-32768)", -128, -32768, false},
		{"every product 127·(-32768)", 127, -32768, false},
		{"every product (-128)·32767", -128, 32767, false},
		{"alternating signs", -128, -32768, true},
	}
	rng := rand.New(rand.NewSource(5))
	flush, flush4 := 8*255, 16*255 // DotInt8Int16's and DotInt8Rows's
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 300, 304, flush - 8, flush - 1, flush, flush + 1, flush + 8, 2048,
		flush4 - 16, flush4 - 1, flush4, flush4 + 1, flush4 + 16, 2 * flush4, 2*flush4 + 16, 16384} {
		a, b := make([]int8, n), make([]int16, n+2) // b may be longer
		for i := range a {
			a[i], b[i] = int8(rng.Intn(256)-128), int16(rng.Intn(65536)-32768)
		}
		check("random", a, b)
		for off := 1; off < 16 && off < n; off += 5 {
			check("a off 16-byte alignment", a[off:], b[:n])
			check("b off 16-byte alignment", a[:n-off], b[off:n])
			check("both off 16-byte alignment", a[off:], b[off:n])
		}
		for _, c := range corners {
			for i := range a {
				a[i], b[i] = c.x, c.y
				if c.alternate && i%2 == 1 {
					a[i] = -c.x - 1 // int8's range is asymmetric: 128 does not exist
				}
			}
			check(c.name, a, b)
		}
	}
}

// TestQuantizeBlocks holds the block loops to the portable ones: the same
// maximum, the same codes, and a residual sum that differs only by its
// summation order.
func TestQuantizeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 4, 8, 300, 5408} {
		for _, scale := range []float64{1e-30, 1, 1e30} {
			o := gaussVec(rng, n, scale)
			if n > 0 {
				o[rng.Intn(n)] *= 1e3 // one dominant component
				o[rng.Intn(n)] = 0
			}
			if got, want := maxAbsBlocks(o), maxAbsTail(o, 0); got != want {
				t.Fatalf("n=%d: maxAbsBlocks %v, want %v", n, got, want)
			}
			s := float32(float64(maxAbsTail(o, 0)) / 127)
			if s < 0x1p-126 {
				continue
			}
			got, want := make([]int8, n), make([]int8, n)
			gs := quantizeBlocks(got, o, 1/float64(s), float64(s))
			ws := quantizeTail(want, o, 1/float64(s), float64(s))
			if string(unsafeBytes(got)) != string(unsafeBytes(want)) {
				t.Fatalf("n=%d scale %g: codes differ", n, scale)
			}
			if math.Abs(gs-ws) > 1e-12*ws {
				t.Fatalf("n=%d scale %g: residual sum %v, want %v", n, scale, gs, ws)
			}
		}
	}
}

func unsafeBytes(c []int8) []byte {
	b := make([]byte, len(c))
	for i, x := range c {
		b[i] = byte(x)
	}
	return b
}

// FuzzScreenBound: for arbitrary finite o and q the bound is at least the
// float64 DotBytes returns, bit for bit.
func FuzzScreenBound(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 128, 63, 0, 0, 0, 192})
	f.Add([]byte{1, 0, 0, 0, 0, 36, 116, 73, 255, 255, 127, 127, 1, 0, 0, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		o, q := Decode(raw, n, nil), Decode(raw[4*n:], n, nil)
		if math.IsInf(Norm2Sq(o)+Norm2Sq(q), 0) || math.IsNaN(Norm2Sq(o)+Norm2Sq(q)) {
			t.Skip("the index refuses non-finite vectors")
		}
		checkBound(t, "fuzz", o, q)
	})
}

// FuzzDotInt8Int16: for arbitrary codes at arbitrary offsets the kernel
// returns what the portable loop does.
// checkRows holds DotInt8Rows over the first rows rows of slab, len(b)
// codes each, to dotInt8Tail on every row, on the portable path and, when
// the host has AVX2, on the four-row kernel.
func checkRows(t testing.TB, name string, slab []int8, b []int16, rows int) {
	t.Helper()
	m := len(b)
	dot8Paths(func(path string) {
		got := make([]int64, rows)
		DotInt8Rows(slab, b, got)
		for r, g := range got {
			if want := dotInt8Tail(slab[r*m:(r+1)*m], b); g != want {
				t.Fatalf("%s, %s, m=%d: row %d of %d: DotInt8Rows=%d want %d", name, path, m, r, rows, g, want)
			}
		}
	})
}

// TestDotInt8RowsPanicsOnShortSlab: a slab holding fewer rows than asked
// for is refused, not read past.
func TestDotInt8RowsPanicsOnShortSlab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotInt8Rows accepted a slab one code short")
		}
	}()
	DotInt8Rows(make([]int8, 4*16-1), make([]int16, 16), make([]int64, 4))
}

func FuzzDotInt8Int16(f *testing.F) {
	f.Add([]byte{0x80, 0x80, 0x00, 0x80, 0x7f, 0x01, 0xff, 0xff, 0x00}, uint8(0))
	f.Add(make([]byte, 3*8*255+5), uint8(0x35))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8) {
		// off's nibbles start a and b that many elements into their
		// allocations, off any 16-byte boundary.
		n, oa, ob := len(raw)/3, int(off&15), int(off>>4)
		a, b := make([]int8, oa+n)[oa:], make([]int16, ob+n)[ob:]
		for i := range a {
			a[i] = int8(raw[i])
			b[i] = int16(uint16(raw[n+2*i]) | uint16(raw[n+2*i+1])<<8)
		}
		if got, want := DotInt8Int16(a, b), dotInt8Tail(a, b); got != want {
			t.Fatalf("n=%d: DotInt8Int16=%d, portable loop %d", n, got, want)
		}
		// The same codes as a slab of rows of m = 1 + off%n codes each, from
		// a on (which starts off a 16-byte boundary when off&15 is not 0).
		if n > 0 {
			m := 1 + int(off)%n
			checkRows(t, "fuzz", a, b[:m], n/m)
		}
	})
}

// BenchmarkDotInt8Int16 scores 300-dimension rows at both ends of the
// memory hierarchy: one row that stays in L1, and the rows of a
// warm-small-sized index (17,770 × 300 codes, 5.3 MB) read at random
// positions, the cache-missing shape a query's screen sees.
func BenchmarkDotInt8Int16(b *testing.B) {
	const d, n = 300, 17770
	rng := rand.New(rand.NewSource(2))
	rows, q := make([]int8, n*d), make([]int16, d)
	for i := range rows {
		rows[i] = int8(rng.Intn(255) - 127)
	}
	for i := range q {
		q[i] = int16(rng.Intn(65535) - 32767)
	}
	var sink int64
	b.Run("l1", func(b *testing.B) {
		for b.Loop() {
			sink += DotInt8Int16(rows[:d], q)
		}
	})
	b.Run("random-of-17770", func(b *testing.B) {
		pos := make([]int, 4096)
		for i := range pos {
			pos[i] = rng.Intn(n) * d
		}
		i := 0
		for b.Loop() {
			p := pos[i&(len(pos)-1)]
			sink += DotInt8Int16(rows[p:p+d], q)
			i++
		}
	})
	_ = sink
}

// BenchmarkDotInt8Rows times the scans' kernel per row at d=300 laid out
// at Int8RowLen: 16 rows that stay in L1, and the rows of a 6,144-entry
// backlog shard and of a 25,000-point store, each scored in chunks of 256.
//
//	go test ./internal/vec -run NONE -bench DotInt8Rows
func BenchmarkDotInt8Rows(b *testing.B) {
	const d = 300
	m := Int8RowLen(d)
	rng := rand.New(rand.NewSource(2))
	var z Int16Query
	z.Quantize(gaussVec(rng, d, 1))
	for _, n := range []int{16, 6144, 25000} {
		rows := make([]int8, n*m)
		for i := range rows {
			if i%m < d {
				rows[i] = int8(rng.Intn(255) - 127)
			}
		}
		dst := make([]int64, 256)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for b.Loop() {
				for first := 0; first < n; first += 256 {
					k := min(256, n-first)
					z.DotRows(rows[first*m:], dst[:k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

func BenchmarkQuantizeInt8(b *testing.B) {
	o := gaussVec(rand.New(rand.NewSource(2)), 300, 1)
	c := make([]int8, 300)
	for i := 0; i < b.N; i++ {
		QuantizeInt8(c, o)
	}
}
