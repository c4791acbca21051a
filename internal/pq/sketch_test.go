package pq

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"promips/internal/vec"
)

func randVecs(r *rand.Rand, n, d int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// TestSketchBoundIsUpperBound is the load-bearing property: Bound must
// dominate the true inner product for every (point, query) pair — the
// candidate prune's exactness (and with it the (c,p) guarantee) rests on
// it.
func TestSketchBoundIsUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range []int{7, 32, 300} {
		data := randVecs(r, 300, d)
		s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		queries := randVecs(r, 20, d)
		var lut []float64
		for _, q := range queries {
			lut = s.NewLUT(q, lut)
			normQ := vec.Norm2(q)
			for id := range data {
				truth := vec.Dot(data[id], q)
				bound := s.Bound(uint32(id), lut, normQ)
				if bound < truth {
					t.Fatalf("d=%d id=%d: bound %v < true inner product %v", d, id, bound, truth)
				}
			}
		}
	}
}

// TestSketchEstimateQuality sanity-checks that the estimate actually
// correlates with the truth: averaged over many pairs, |estimate - truth|
// must be far below the inner products' own spread (otherwise pre-ranking
// would be noise).
func TestSketchEstimateQuality(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const d = 64
	data := randVecs(r, 500, d)
	s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := data[7]
	lut := s.NewLUT(q, nil)
	var errSum, magSum float64
	for id := range data {
		truth := vec.Dot(data[id], q)
		est := s.Estimate(uint32(id), lut)
		if est > truth {
			errSum += est - truth
		} else {
			errSum += truth - est
		}
		if truth < 0 {
			magSum -= truth
		} else {
			magSum += truth
		}
	}
	if errSum > magSum {
		t.Fatalf("estimate error %.2f exceeds signal magnitude %.2f", errSum, magSum)
	}
}

func TestSketchMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	data := randVecs(r, 120, 40)
	s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := UnmarshalSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	q := data[3]
	lut1 := s.NewLUT(q, nil)
	lut2 := s2.NewLUT(q, nil)
	normQ := vec.Norm2(q)
	for id := range data {
		if s.Estimate(uint32(id), lut1) != s2.Estimate(uint32(id), lut2) {
			t.Fatalf("id %d: estimate differs after round trip", id)
		}
		if s.Bound(uint32(id), lut1, normQ) != s2.Bound(uint32(id), lut2, normQ) {
			t.Fatalf("id %d: bound differs after round trip", id)
		}
	}
	if s2.Bytes() != s.Bytes() || s2.Len() != s.Len() {
		t.Fatal("geometry differs after round trip")
	}
}

// TestSketchPermuteAndEstimate4: after Permute(order) row r answers for the
// point row order[r] held, Marshal(order) writes the bytes the unpermuted
// sketch's Marshal(nil) writes — the persisted row order does not move —
// and Estimate4 of any four rows is == Estimate of each.
func TestSketchPermuteAndEstimate4(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	data := randVecs(r, 157, 37)
	build := func() *Sketch {
		s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	byID, permuted := build(), build()
	order := make([]uint32, len(data))
	for i, id := range r.Perm(len(data)) {
		order[i] = uint32(id)
	}
	permuted.Permute(order)
	q := data[11]
	lut := byID.NewLUT(q, nil)
	normQ := vec.Norm2(q)
	for row, id := range order {
		if permuted.Estimate(uint32(row), lut) != byID.Estimate(id, lut) || permuted.Bound(uint32(row), lut, normQ) != byID.Bound(id, lut, normQ) {
			t.Fatalf("row %d does not answer for point %d after Permute", row, id)
		}
	}
	want, err := byID.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := permuted.Marshal(order)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Marshal(order) of the permuted sketch differs from Marshal(nil) of the unpermuted one")
	}
	for trial := 0; trial < 200; trial++ {
		rows := [4]uint32{uint32(r.Intn(len(data))), uint32(r.Intn(len(data))), uint32(r.Intn(len(data))), uint32(r.Intn(len(data)))}
		var est [4]float64
		est[0], est[1], est[2], est[3] = permuted.Estimate4(rows[0], rows[1], rows[2], rows[3], lut)
		for i, row := range rows {
			if want := permuted.Estimate(row, lut); math.Float64bits(est[i]) != math.Float64bits(want) {
				t.Fatalf("Estimate4 row %d = %v, Estimate %v", row, est[i], want)
			}
		}
	}
}

func TestUnmarshalSketchRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSketch([]byte("not a gob")); err == nil {
		t.Fatal("expected error for garbage blob")
	}
	// A structurally valid gob with inconsistent geometry must be rejected
	// too: truncate the codes of a real sketch.
	r := rand.New(rand.NewSource(23))
	data := randVecs(r, 50, 16)
	s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.codes = s.codes[:len(s.codes)-1]
	blob, err := s.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSketch(blob); err == nil {
		t.Fatal("expected error for inconsistent code length")
	}
	// More codewords than a one-byte code can address.
	s.codes = s.codes[:cap(s.codes)]
	s.centroids = 257
	for sub := range s.codebooks {
		s.codebooks[sub] = make([]float32, s.centroids*s.subDim)
	}
	if blob, err = s.Marshal(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSketch(blob); err == nil {
		t.Fatal("expected error for 257 codewords per codebook")
	}
}

// TestSketchLowDim covers d < default subspaces (each subspace one
// dimension) and tiny datasets (fewer points than centroids).
func TestSketchLowDim(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	data := randVecs(r, 9, 3)
	s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := data[0]
	lut := s.NewLUT(q, nil)
	normQ := vec.Norm2(q)
	for id := range data {
		truth := vec.Dot(data[id], q)
		if b := s.Bound(uint32(id), lut, normQ); b < truth {
			t.Fatalf("id %d: bound %v < truth %v", id, b, truth)
		}
	}
}

// TestEncodeBoundIsUpperBound is TestSketchBoundIsUpperBound for vectors
// the codebooks never saw — the un-compacted update entries of the core
// index, pruned by BoundCodes(Encode(v)). The bound must dominate the true
// inner product for EVERY vector and query, with the two degenerate
// encodings included: a vector that is exactly a concatenation of codewords
// (zero residual: the bound rests on the epsilon widening alone) and the
// zero vector (the bound is a pure residual term around an estimate of a
// codeword the vector is not near).
func TestEncodeBoundIsUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, d := range []int{7, 32, 300} {
		s, err := BuildSketch(context.Background(), randVecs(r, 300, d), SketchConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		fresh := randVecs(r, 200, d)
		for i := range fresh[:50] { // off-distribution: far larger than anything trained on
			for j := range fresh[i] {
				fresh[i][j] *= 40
			}
		}
		codeword := make([]float32, 0, s.subspaces*s.subDim)
		for sub := 0; sub < s.subspaces; sub++ {
			c := r.Intn(s.centroids)
			codeword = append(codeword, s.codebooks[sub][c*s.subDim:(c+1)*s.subDim]...)
		}
		fresh = append(fresh, codeword[:d], make([]float32, d))

		codes := make([]byte, s.Subspaces())
		var lut []float64
		queries := append(randVecs(r, 20, d), make([]float32, d))
		for vi, v := range fresh {
			resid := s.Encode(v, codes)
			for _, q := range queries {
				lut = s.NewLUT(q, lut)
				truth := vec.Dot(v, q)
				if bound := s.BoundCodes(codes, resid, lut, vec.Norm2(q)); bound < truth {
					t.Fatalf("d=%d vector %d: bound %v < true inner product %v", d, vi, bound, truth)
				}
			}
		}
	}
}

// TestEncodeMatchesBuild pins the one-encoder contract: Encode of a dataset
// point reproduces the codes and residual BuildSketch stored for it, so
// Bound(id) and BoundCodes(Encode(point id)) are the same number.
func TestEncodeMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, d := range []int{3, 40, 300} {
		data := randVecs(r, 150, d)
		s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		codes := make([]byte, s.Subspaces())
		q := randVecs(r, 1, d)[0]
		lut := s.NewLUT(q, nil)
		for id, v := range data {
			resid := s.Encode(v, codes)
			if got, want := s.BoundCodes(codes, resid, lut, vec.Norm2(q)), s.Bound(uint32(id), lut, vec.Norm2(q)); got != want {
				t.Fatalf("d=%d id=%d: BoundCodes(Encode) %v != Bound %v", d, id, got, want)
			}
		}
	}
}

// TestEncodeMatchesOneByOne pins Encode's four-codewords-at-a-time scoring
// to the loop it replaced — vec.L2DistSq of the chunk against each codeword
// in turn, codeword 0 until one is strictly closer — codes and residual
// alike, for codebook sizes on both sides of the group of four and a ragged
// last chunk.
func TestEncodeMatchesOneByOne(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, centroids := range []int{1, 3, 4, 6, 16} {
		for _, d := range []int{5, 32, 300} {
			s, err := BuildSketch(context.Background(), randVecs(r, 200, d), SketchConfig{Seed: 3, Centroids: centroids})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range randVecs(r, 50, d) {
				codes := make([]byte, s.Subspaces())
				resid := s.Encode(v, codes)
				var residSq float64
				for sub := range codes {
					c := subChunk(v, sub*s.subDim, s.subDim, nil)
					best, bestD := 0, float64(0)
					for ci := 0; ci < s.centroids; ci++ {
						dd := vec.L2DistSq(c, s.codebooks[sub][ci*s.subDim:(ci+1)*s.subDim])
						if ci == 0 || dd < bestD {
							best, bestD = ci, dd
						}
					}
					if int(codes[sub]) != best {
						t.Fatalf("centroids=%d d=%d sub=%d: code %d, one-by-one loop says %d", centroids, d, sub, codes[sub], best)
					}
					residSq += bestD
				}
				if want := float32(math.Sqrt(residSq)) * (1 + 1e-6); resid != want {
					t.Fatalf("centroids=%d d=%d: residual %v, one-by-one loop says %v", centroids, d, resid, want)
				}
			}
		}
	}
}

var sinkResid float32

// BenchmarkEncode300 quantizes d=300 vectors against a default sketch (16
// subspaces of 19 dimensions, 16 codewords each) — the per-point work of
// Build's encode pass and of every Insert; ns/op is per vector.
func BenchmarkEncode300(b *testing.B) {
	data := randVecs(rand.New(rand.NewSource(300)), 2048, 300)
	s, err := BuildSketch(context.Background(), data, SketchConfig{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	codes := make([]byte, s.Subspaces())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResid += s.Encode(data[i%len(data)], codes)
	}
}
