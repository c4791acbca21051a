package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, d int) []float32 {
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if got := Dot(a, b); got != 4-10+18 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNorms(t *testing.T) {
	a := []float32{3, -4}
	if got := Norm2Sq(a); got != 25 {
		t.Fatalf("Norm2Sq = %v, want 25", got)
	}
	if got := Norm2(a); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm1(a); got != 7 {
		t.Fatalf("Norm1 = %v, want 7", got)
	}
}

func TestL2Dist(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := L2Dist(a, b); got != 5 {
		t.Fatalf("L2Dist = %v, want 5", got)
	}
	if got := L2DistSq(a, b); got != 25 {
		t.Fatalf("L2DistSq = %v, want 25", got)
	}
}

func TestScaleSubAdd(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 5}
	if got := Sub(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Add(b, a); got[0] != 4 || got[1] != 7 {
		t.Fatalf("Add = %v", got)
	}
	c := Clone(a)
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliased its input")
	}
}

func TestAppend(t *testing.T) {
	a := []float32{1, 2}
	got := Append(a, 9)
	if len(got) != 3 || got[2] != 9 {
		t.Fatalf("Append = %v", got)
	}
	got[0] = 100
	if a[0] != 1 {
		t.Fatal("Append aliased its input")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		d := 1 + r.Intn(100)
		v := randVec(r, d)
		buf := make([]byte, EncodedSize(d))
		if n := Encode(buf, v); n != 4*d {
			t.Fatalf("Encode wrote %d bytes, want %d", n, 4*d)
		}
		got := Decode(buf, d, nil)
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("round trip mismatch at %d: %v != %v", i, got[i], v[i])
			}
		}
	}
}

func TestDecodeReusesBuffer(t *testing.T) {
	v := []float32{1, 2, 3}
	buf := make([]byte, EncodedSize(3))
	Encode(buf, v)
	dst := make([]float32, 8)
	got := Decode(buf, 3, dst)
	if len(got) != 3 {
		t.Fatalf("Decode len = %d, want 3", len(got))
	}
	if &got[0] != &dst[0] {
		t.Fatal("Decode did not reuse the provided buffer")
	}
}

// Property: Cauchy-Schwarz |⟨a,b⟩| ≤ ‖a‖‖b‖.
func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(64)
		a, b := randVec(r, d), randVec(r, d)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for L2Dist.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(64)
		a, b, c := randVec(r, d), randVec(r, d), randVec(r, d)
		return L2Dist(a, c) <= L2Dist(a, b)+L2Dist(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖a‖₂ ≤ ‖a‖₁ ≤ √d·‖a‖₂ (Theorems 3/4 rely on both directions).
func TestPropertyNormEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(64)
		a := randVec(r, d)
		n1, n2 := Norm1(a), Norm2(a)
		return n2 <= n1+1e-6 && n1 <= math.Sqrt(float64(d))*n2+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode is the identity on float32 slices.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(raw []float32) bool {
		buf := make([]byte, EncodedSize(len(raw)))
		Encode(buf, raw)
		got := Decode(buf, len(raw), nil)
		for i := range raw {
			a, b := raw[i], got[i]
			if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot300(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, y := randVec(r, 300), randVec(r, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}
