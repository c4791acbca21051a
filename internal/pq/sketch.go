package pq

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"

	"promips/internal/kmeans"
	"promips/internal/par"
	"promips/internal/vec"
)

// Sketch is an in-memory product-quantization inner-product estimator: the
// dataset's vectors are split into Subspaces contiguous chunks, each chunk
// quantized against a small per-subspace codebook, and a point is kept as
// Subspaces one-byte codes. At query time one lookup table of
// ⟨codebook centroid, query chunk⟩ inner products turns every point's
// estimated ⟨o,q⟩ into Subspaces table lookups and adds — no disk I/O, no
// per-point float math.
//
// ProMIPS uses the sketch to PRE-RANK candidate verification: the
// estimated-best candidates are verified (exactly, from the original-vector
// store) first, so the true top-k surfaces after far fewer disk
// verifications and Condition B's denominator shrinks early. The sketch
// never decides membership of the result set — every returned point is still
// exactly verified — so the (c, p) guarantee is untouched; see DESIGN.md.
//
// A Sketch is immutable after BuildSketch and safe for concurrent use.
type Sketch struct {
	d, n      int
	subspaces int
	subDim    int // ceil(d / subspaces); the last chunk is zero-padded
	centroids int
	codebooks [][]float32 // [subspaces][centroids*subDim], row-major
	codes     []byte      // [n][subspaces], row-major; row i is data[i] until Permute
	// resid[i] = sqrt(Σ_sub ‖chunk_sub(o_i) − codeword‖²): the point's total
	// quantization residual. By Cauchy-Schwarz (per subspace, then across
	// subspaces), |⟨o,q⟩ − Estimate(o,q)| ≤ resid[o]·‖q‖, making Bound an
	// EXACT upper bound on the true inner product — the basis of the
	// no-probability-spent candidate prune.
	resid []float32
}

// SketchConfig sizes a Sketch. The defaults (16 subspaces × 16 centroids)
// keep it at 16 bytes per point with a per-query table build of
// centroids × d multiplications — noise next to one candidate verification.
type SketchConfig struct {
	Subspaces   int   // default 16 (clamped to d)
	Centroids   int   // per-subspace codebook size, ≤ 256; default 16
	TrainSample int   // max points used to train codebooks; default 2000
	MaxIter     int   // k-means iterations per codebook; default 8
	Seed        int64 // clustering seed
}

func (c *SketchConfig) normalize(d int) {
	if c.Subspaces <= 0 {
		c.Subspaces = 16
	}
	if c.Subspaces > d {
		c.Subspaces = d
	}
	if c.Centroids <= 0 {
		c.Centroids = 16
	}
	if c.Centroids > 256 {
		c.Centroids = 256
	}
	if c.TrainSample <= 0 {
		c.TrainSample = 2000
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 8
	}
}

// encodeGrain is how many points one Encode pool task quantizes: a few
// milliseconds of work, so tasks balance across workers and a cancelled
// build stops promptly.
const encodeGrain = 512

// BuildSketch trains the per-subspace codebooks on (a sample of) data and
// encodes every point. Point i's codes row is i, matching the ids the
// ProMIPS core assigns at Build (which then moves the rows into layout
// order with Permute). The subspaces train, and then the points
// encode, as tasks of the build worker pool (internal/par): each subspace
// draws from its own seed and each point writes its own codes row, so the
// sketch is the same at every worker count. A done ctx stops the build
// between tasks and is returned as ctx.Err().
func BuildSketch(ctx context.Context, data [][]float32, cfg SketchConfig) (*Sketch, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("pq: sketch over empty dataset")
	}
	d := len(data[0])
	cfg.normalize(d)
	subDim := (d + cfg.Subspaces - 1) / cfg.Subspaces

	s := &Sketch{
		d: d, n: n,
		subspaces: cfg.Subspaces,
		subDim:    subDim,
		codebooks: make([][]float32, cfg.Subspaces),
		codes:     make([]byte, n*cfg.Subspaces),
		resid:     make([]float32, n),
	}
	// Training sample: an even stride over the dataset keeps the sample
	// deterministic and spread across the (often locality-ordered) input.
	stride := 1
	if n > cfg.TrainSample {
		stride = n / cfg.TrainSample
	}

	err := par.Do(ctx, cfg.Subspaces, func(sub int) error {
		lo := sub * subDim
		sample := make([][]float32, 0, n/stride+1)
		for i := 0; i < n; i += stride {
			sample = append(sample, subChunk(data[i], lo, subDim, nil))
		}
		res := kmeans.Run(sample, kmeans.Config{K: cfg.Centroids, Seed: cfg.Seed + int64(sub)*131, MaxIter: cfg.MaxIter})
		book := make([]float32, len(res.Centroids)*subDim)
		for ci, cent := range res.Centroids {
			copy(book[ci*subDim:], cent)
		}
		s.codebooks[sub] = book
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Subspace 0 fixes the codebook size. Degenerate data can leave another
	// codebook with fewer centroids; pad it with copies of its last one so
	// every subspace has the same table geometry (codes never reference the
	// padding: Encode keeps the first of equidistant codewords).
	s.centroids = len(s.codebooks[0]) / subDim
	for sub, book := range s.codebooks {
		k := len(book) / subDim
		if k < s.centroids {
			pad := make([]float32, s.centroids*subDim)
			copy(pad, book)
			for ci := k; ci < s.centroids; ci++ {
				copy(pad[ci*subDim:], book[(k-1)*subDim:k*subDim])
			}
			s.codebooks[sub] = pad
		} else {
			s.codebooks[sub] = book[:s.centroids*subDim]
		}
	}
	err = par.Range(ctx, n, encodeGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.resid[i] = s.Encode(data[i], s.codes[i*cfg.Subspaces:(i+1)*cfg.Subspaces])
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Encode quantizes v — any d-dimensional vector, not only a point the
// codebooks were trained on — against the sketch's codebooks: codes[sub]
// receives the nearest codeword of v's chunk sub (len(codes) must be
// Subspaces()), and the returned residual is v's total quantization error,
// rounded up. BoundCodes over the pair is an exact upper bound on ⟨v,q⟩ for
// every q: the Cauchy-Schwarz argument on Sketch.resid holds for whatever
// codeword was picked, so it never relied on v being in the training set.
// BuildSketch encodes the dataset through this same function.
func (s *Sketch) Encode(v []float32, codes []byte) float32 {
	var residSq float64
	var pad []float32     // the ragged last chunk, zero-padded to subDim
	var dist [256]float64 // a one-byte code addresses at most 256 codewords
	sd := s.subDim
	for sub := 0; sub < s.subspaces; sub++ {
		lo := sub * sd
		var c []float32
		if lo+sd <= len(v) {
			c = v[lo : lo+sd]
		} else {
			pad = subChunk(v, lo, sd, pad)
			c = pad
		}
		// The codebook is scored in one call and the distances compared in
		// index order: they and the winner — codeword 0 until one is
		// strictly closer — are those of a one-by-one vec.L2DistSq loop.
		d := dist[:s.centroids]
		vec.L2DistSqSlab(s.codebooks[sub], sd, c, d)
		best, bestD := 0, d[0]
		for ci, dd := range d {
			if dd < bestD {
				best, bestD = ci, dd
			}
		}
		codes[sub] = byte(best)
		residSq += bestD
	}
	// Round the residual up by one float32 ulp-ish factor so the bound
	// stays an upper bound after the float32 truncation.
	return float32(math.Sqrt(residSq)) * (1 + 1e-6)
}

// subChunk copies v[lo:lo+subDim] into dst (allocating when nil),
// zero-padding past the end of v.
func subChunk(v []float32, lo, subDim int, dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, subDim)
	}
	dst = dst[:subDim]
	n := copy(dst, v[min(lo, len(v)):])
	for i := n; i < subDim; i++ {
		dst[i] = 0
	}
	return dst
}

// Len returns the number of encoded points.
func (s *Sketch) Len() int { return s.n }

// Dim returns the dimensionality of the vectors the sketch encodes.
func (s *Sketch) Dim() int { return s.d }

// Subspaces returns the number of one-byte codes per encoded vector.
func (s *Sketch) Subspaces() int { return s.subspaces }

// Bytes returns the in-memory footprint of the codes, residuals and
// codebooks (the per-point cost the index size accounting charges the
// sketch with).
func (s *Sketch) Bytes() int64 {
	book := int64(s.subspaces) * int64(s.centroids) * int64(s.subDim) * 4
	return int64(len(s.codes)) + int64(len(s.resid))*4 + book
}

// LUTSize returns the length of the lookup table NewLUT fills.
func (s *Sketch) LUTSize() int { return s.subspaces * s.centroids }

// NewLUT builds the query's asymmetric lookup table into dst (reused when
// large enough): lut[sub*centroids+c] = ⟨codebook[sub][c], q chunk sub⟩, so
// Estimate is a pure table walk.
func (s *Sketch) NewLUT(q []float32, dst []float64) []float64 {
	if cap(dst) < s.LUTSize() {
		dst = make([]float64, s.LUTSize())
	}
	dst = dst[:s.LUTSize()]
	for sub := 0; sub < s.subspaces; sub++ {
		lo := sub * s.subDim
		hi := lo + s.subDim
		if hi > s.d {
			hi = s.d
		}
		if lo >= s.d {
			for c := 0; c < s.centroids; c++ {
				dst[sub*s.centroids+c] = 0
			}
			continue
		}
		// Eight codewords per vec.Dot8 pass, the rest one by one: each entry
		// is vec.Dot of the codeword's first len(chunk) floats and the chunk.
		chunk := q[lo:hi]
		book, out := s.codebooks[sub], dst[sub*s.centroids:(sub+1)*s.centroids]
		row := func(c int) []float32 { return book[c*s.subDim : c*s.subDim+len(chunk)] }
		c := 0
		for ; c+8 <= s.centroids; c += 8 {
			var rows [8][]float32
			for r := range rows {
				rows[r] = row(c + r)
			}
			vec.Dot8(&rows, chunk, (*[8]float64)(out[c:c+8]))
		}
		for ; c < s.centroids; c++ {
			out[c] = vec.Dot(row(c), chunk)
		}
	}
	return dst
}

// Estimate returns the sketch's estimated ⟨o,q⟩ for the point in row r,
// from a table NewLUT built for q.
func (s *Sketch) Estimate(r uint32, lut []float64) float64 {
	return s.estimateCodes(s.row(r), lut)
}

// Estimate4 returns the estimates of four rows, each == Estimate of its row:
// the same table walk, with four independent add chains instead of one.
// Pre-ranking estimates every collected candidate through it.
func (s *Sketch) Estimate4(r0, r1, r2, r3 uint32, lut []float64) (e0, e1, e2, e3 float64) {
	c0, c1, c2, c3 := s.row(r0), s.row(r1), s.row(r2), s.row(r3)
	c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
	for sub, code := range c0 {
		base := sub * s.centroids
		e0 += lut[base+int(code)]
		e1 += lut[base+int(c1[sub])]
		e2 += lut[base+int(c2[sub])]
		e3 += lut[base+int(c3[sub])]
	}
	return
}

// row returns the codes of row r.
func (s *Sketch) row(r uint32) []byte {
	return s.codes[int(r)*s.subspaces : (int(r)+1)*s.subspaces]
}

func (s *Sketch) estimateCodes(codes []byte, lut []float64) float64 {
	var acc float64
	for sub, code := range codes {
		acc += lut[sub*s.centroids+int(code)]
	}
	return acc
}

// Bound returns an EXACT upper bound on ⟨o,q⟩ for the point in row r: the
// sketch estimate plus the point's quantization residual times ‖q‖ (normQ),
// pushed outward by widen. A candidate whose Bound cannot beat the current
// k-th inner product provably cannot enter the top-k, so its disk
// verification can be skipped with no probability spent.
func (s *Sketch) Bound(r uint32, lut []float64, normQ float64) float64 {
	return s.BoundEstimate(r, s.Estimate(r, lut), normQ)
}

// BoundEstimate is Bound for a caller that already holds est =
// Estimate(r, lut) — the search path computes every collected candidate's
// estimate once, to pre-rank, and bounds from that instead of walking the
// codes again. The result is bit-identical to Bound.
func (s *Sketch) BoundEstimate(r uint32, est, normQ float64) float64 {
	return widen(est + float64(s.resid[r])*normQ)
}

// Permute reorders the sketch's rows in place so that row r afterwards
// holds the point row order[r] held — BuildSketch encodes data[i] in row i,
// and the ProMIPS core reorders the rows into the iDistance layout, the
// order its candidate loops walk them in. order must be a permutation of
// the rows.
func (s *Sketch) Permute(order []uint32) {
	vec.PermuteRows(s.codes, s.subspaces, order)
	vec.PermuteRows(s.resid, 1, order)
}

// BoundCodes is Bound for a vector held outside the sketch: codes and resid
// are what Encode returned for it under THIS sketch's codebooks (codes from
// another sketch index a different table and bound nothing).
func (s *Sketch) BoundCodes(codes []byte, resid float32, lut []float64, normQ float64) float64 {
	return widen(s.estimateCodes(codes, lut) + float64(resid)*normQ)
}

// widen pushes a bound outward by a relative epsilon that dominates the
// float64 accumulation error of the estimate (without it, a zero-residual
// point — one that IS a codeword — would rest the bound on bit-for-bit
// rounding agreement between two differently ordered dot products). Every
// bound the sketch hands out goes through here.
func widen(b float64) float64 {
	if b >= 0 {
		return b * (1 + 1e-9)
	}
	return b * (1 - 1e-9)
}

// sketchMeta is the gob image of a Sketch.
type sketchMeta struct {
	D, N      int
	Subspaces int
	SubDim    int
	Centroids int
	Codebooks [][]float32
	Codes     []byte
	Resid     []float32
}

// Marshal serializes the sketch for persistence alongside the index meta.
// The rows are written in the order they had before Permute(order): row r
// is persisted as row order[r]. A nil order writes them as they are.
func (s *Sketch) Marshal(order []uint32) ([]byte, error) {
	codes, resid := s.codes, s.resid
	if order != nil {
		codes = vec.UnpermuteRows(codes, s.subspaces, order)
		resid = vec.UnpermuteRows(resid, 1, order)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(sketchMeta{
		D: s.d, N: s.n,
		Subspaces: s.subspaces, SubDim: s.subDim, Centroids: s.centroids,
		Codebooks: s.codebooks, Codes: codes, Resid: resid,
	})
	if err != nil {
		return nil, fmt.Errorf("pq: marshal sketch: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalSketch reverses Marshal(nil); a caller that marshaled with an
// order applies Permute(order) to the result.
func UnmarshalSketch(b []byte) (*Sketch, error) {
	var m sketchMeta
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
		return nil, fmt.Errorf("pq: unmarshal sketch: %w", err)
	}
	if m.N <= 0 || m.Subspaces <= 0 || m.Centroids <= 0 || m.Centroids > 256 || m.SubDim <= 0 ||
		len(m.Codes) != m.N*m.Subspaces || len(m.Codebooks) != m.Subspaces ||
		len(m.Resid) != m.N {
		return nil, fmt.Errorf("pq: unmarshal sketch: inconsistent geometry")
	}
	for _, book := range m.Codebooks {
		if len(book) != m.Centroids*m.SubDim {
			return nil, fmt.Errorf("pq: unmarshal sketch: inconsistent codebook size")
		}
	}
	return &Sketch{
		d: m.D, n: m.N,
		subspaces: m.Subspaces, subDim: m.SubDim, centroids: m.Centroids,
		codebooks: m.Codebooks, codes: m.Codes, resid: m.Resid,
	}, nil
}
