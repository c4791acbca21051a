// Package qalsh implements QALSH — query-aware locality-sensitive hashing
// for c-approximate nearest neighbor search (Huang et al., PVLDB 2015) — as
// the disk-resident substrate of the H2-ALSH baseline, exactly as the
// ProMIPS paper's experiments do ("we employ the disk-resident QALSH in the
// implementation of H2-ALSH").
//
// Each of the K hash functions is a Gaussian vector a_i; the table for
// function i is the list of (a_i·o, id) pairs sorted by projection, laid
// out on disk pages. A query anchors a bucket of width w·R at its own
// projection (query-aware: no random shift) and performs virtual rehashing
// by growing R geometrically; points colliding in at least l tables become
// candidates and are verified through a caller-supplied distance oracle.
//
// The number of tables K and the collision threshold l follow the QALSH
// paper's Chernoff-bound construction from (c, δ, β); K is what makes LSH
// "heavyweight" next to ProMIPS' single B+-tree, which is the comparison
// the benchmark reproduces.
package qalsh

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"

	"promips/internal/pager"
	"promips/internal/stats"
)

// Config parameterizes a QALSH index.
type Config struct {
	// C is the ANN approximation ratio c0 > 1 (the paper fixes 2.0 in the
	// H2-ALSH experiments).
	C float64
	// Delta is the allowed failure probability (default 1/e).
	Delta float64
	// BetaCount is the candidate budget in points (default 100, the QALSH
	// convention β·n = 100).
	BetaCount int
	// MaxTables caps K to keep laptop-scale builds tractable; the paper's
	// point — K grows with n and dwarfs ProMIPS' index — survives the cap.
	MaxTables int
	PageSize  int
	PoolSize  int
	Seed      int64
}

func (c *Config) normalize(n int) {
	if c.C <= 1 {
		c.C = 2.0
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		c.Delta = 1 / math.E
	}
	if c.BetaCount <= 0 {
		c.BetaCount = 100
	}
	if c.MaxTables <= 0 {
		c.MaxTables = 80
	}
	if c.PageSize <= 0 {
		c.PageSize = pager.DefaultPageSize
	}
	_ = n
}

const entrySize = 12 // projection float64 + id uint32

// Index is a built QALSH index.
type Index struct {
	cfg  Config
	d, n int

	K int     // number of hash tables
	L int     // collision threshold l
	W float64 // bucket width w

	hashes [][]float32
	pg     *pager.Pager

	tableStart     []int64 // first page of each table
	entriesPerPage int
}

// Neighbor is a verified candidate with its oracle distance.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// Params derives (w, p1, p2, K, l) from c, δ and β per the QALSH paper:
// w = sqrt(8c²lnc/(c²−1)) maximizes the collision-probability gap;
// p1 = 2Φ(w/2)−1 and p2 = 2Φ(w/2c)−1 are the collision probabilities at
// distances 1 and c; K and the threshold fraction α come from the
// Chernoff bounds that make both error sides vanish.
func Params(c, delta, beta float64) (w, p1, p2, alpha float64, k int) {
	w = math.Sqrt(8 * c * c * math.Log(c) / (c*c - 1))
	p1 = 2*stats.NormalCDF(w/2) - 1
	p2 = 2*stats.NormalCDF(w/(2*c)) - 1
	t1 := math.Sqrt(math.Log(1 / delta))
	t2 := math.Sqrt(math.Log(2 / beta))
	alpha = (t1*p2 + t2*p1) / (t1 + t2)
	k = int(math.Ceil((t1 + t2) * (t1 + t2) / (2 * (p1 - p2) * (p1 - p2))))
	if k < 1 {
		k = 1
	}
	return
}

// Build constructs the index over data in dir.
func Build(data [][]float32, dir string, cfg Config) (*Index, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("qalsh: empty dataset")
	}
	cfg.normalize(n)
	d := len(data[0])

	beta := float64(cfg.BetaCount) / float64(n)
	if beta >= 1 {
		beta = 0.99
	}
	w, _, _, alpha, k := Params(cfg.C, cfg.Delta, beta)
	if k > cfg.MaxTables {
		k = cfg.MaxTables
	}
	l := int(math.Ceil(alpha * float64(k)))
	if l < 1 {
		l = 1
	}
	if l > k {
		l = k
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	hashes := make([][]float32, k)
	for i := range hashes {
		h := make([]float32, d)
		for j := range h {
			h[j] = float32(r.NormFloat64())
		}
		hashes[i] = h
	}

	pw, err := pager.Create(filepath.Join(dir, "qalsh.tables"), cfg.PageSize)
	if err != nil {
		return nil, err
	}
	defer pw.Close() // abandons the file unless Finish has run
	idx := &Index{
		cfg: cfg, d: d, n: n, K: k, L: l, W: w,
		hashes:         hashes,
		tableStart:     make([]int64, k),
		entriesPerPage: cfg.PageSize / entrySize,
	}

	type ent struct {
		proj float64
		id   uint32
	}
	ents := make([]ent, n)
	page := make([]byte, cfg.PageSize)
	for t := 0; t < k; t++ {
		h := hashes[t]
		for i, o := range data {
			var s float64
			for j, v := range h {
				s += float64(v) * float64(o[j])
			}
			ents[i] = ent{proj: s, id: uint32(i)}
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].proj < ents[b].proj })
		first := int64(-1)
		for base := 0; base < n; base += idx.entriesPerPage {
			pid := pw.Alloc()
			if first < 0 {
				first = pid
			}
			clear(page)
			for s := 0; s < idx.entriesPerPage && base+s < n; s++ {
				e := ents[base+s]
				binary.LittleEndian.PutUint64(page[s*entrySize:], math.Float64bits(e.proj))
				binary.LittleEndian.PutUint32(page[s*entrySize+8:], e.id)
			}
			if err := pw.Write(pid, page); err != nil {
				return nil, err
			}
		}
		idx.tableStart[t] = first
	}
	if idx.pg, err = pw.Finish(pager.Options{PageSize: cfg.PageSize, PoolSize: cfg.PoolSize}); err != nil {
		return nil, err
	}
	return idx, nil
}

// Close releases the table file.
func (idx *Index) Close() error { return idx.pg.Close() }

// Tables returns K, the number of hash tables.
func (idx *Index) Tables() int { return idx.K }

// Threshold returns l, the collision threshold.
func (idx *Index) Threshold() int { return idx.L }

// IndexSizeBytes returns the on-disk size of the hash tables plus the
// in-memory hash vectors.
func (idx *Index) IndexSizeBytes() int64 {
	return idx.pg.SizeBytes() + int64(idx.K*idx.d*4)
}

// Pager exposes the table pager for I/O accounting.
func (idx *Index) Pager() *pager.Pager { return idx.pg }

// tableReader reads table entries for one search, recording its page reads
// in io. It keeps the page of the last entry read: the cursors of a search
// walk a table an entry at a time, so consecutive entries mostly share a
// page, and a table file read from disk then reads that page once.
type tableReader struct {
	idx   *Index
	io    *pager.IOStats
	pid   int64 // the page in pages[0]; -1 before the first read
	pages [][]byte
	buf   []byte
}

func (idx *Index) reader(io *pager.IOStats) *tableReader {
	return &tableReader{idx: idx, io: io, pid: -1}
}

// entry reads entry j of table t.
func (r *tableReader) entry(t int, j int) (float64, uint32, error) {
	idx := r.idx
	if pid := idx.tableStart[t] + int64(j/idx.entriesPerPage); pid != r.pid {
		var err error
		if r.pages, r.buf, err = idx.pg.Read(pid, 1, r.pages[:0], r.buf, r.io); err != nil {
			r.pid = -1
			return 0, 0, err
		}
		r.pid = pid
	}
	off := (j % idx.entriesPerPage) * entrySize
	page := r.pages[0]
	return math.Float64frombits(binary.LittleEndian.Uint64(page[off:])),
		binary.LittleEndian.Uint32(page[off+8:]), nil
}

// lowerBound returns the first entry index of table t whose projection is
// ≥ x (binary search over disk pages).
func (r *tableReader) lowerBound(t int, x float64) (int, error) {
	lo, hi := 0, r.idx.n
	for lo < hi {
		mid := (lo + hi) / 2
		p, _, err := r.entry(t, mid)
		if err != nil {
			return 0, err
		}
		if p < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Search runs c-k-ANN with virtual rehashing. verify maps a candidate id
// to its true distance (the H2-ALSH wrapper reads the original vector and
// converts the inner product; its page accesses land on its own pager).
// Returns the k nearest verified candidates by oracle distance. The table
// page reads are recorded in io (nil discards the accounting).
func (idx *Index) Search(q []float32, k int, io *pager.IOStats, verify func(id uint32) (float64, error)) ([]Neighbor, error) {
	if len(q) != idx.d {
		return nil, fmt.Errorf("qalsh: query dim %d, want %d", len(q), idx.d)
	}
	if k <= 0 {
		k = 1
	}

	// Query projections and initial cursors.
	tables := idx.reader(io)
	pos := make([]float64, idx.K)
	left := make([]int, idx.K)  // next entry to the left (descending)
	right := make([]int, idx.K) // next entry to the right (ascending)
	for t := 0; t < idx.K; t++ {
		h := idx.hashes[t]
		var s float64
		for j, v := range h {
			s += float64(v) * float64(q[j])
		}
		pos[t] = s
		lb, err := tables.lowerBound(t, s)
		if err != nil {
			return nil, err
		}
		left[t], right[t] = lb-1, lb
	}

	freq := make([]uint16, idx.n)
	seen := make([]bool, idx.n)
	var cands []Neighbor
	budget := idx.cfg.BetaCount + k

	addCandidate := func(id uint32) error {
		if seen[id] {
			return nil
		}
		seen[id] = true
		dist, err := verify(id)
		if err != nil {
			return err
		}
		cands = append(cands, Neighbor{ID: id, Dist: dist})
		return nil
	}

	// Virtual rehashing: R doubles in ratio c each round. Transformed
	// points are unit-norm in the H2-ALSH reduction, so distances live in
	// [0,2]; starting at R = 2⁻¹⁰ only adds cheap empty rounds.
	R := math.Pow(2, -10)
	for round := 0; ; round++ {
		half := idx.W * R / 2
		exhausted := true
		for t := 0; t < idx.K; t++ {
			// Extend the bucket [pos−half, pos+half] on both sides.
			for left[t] >= 0 {
				p, id, err := tables.entry(t, left[t])
				if err != nil {
					return nil, err
				}
				if pos[t]-p > half {
					exhausted = false
					break
				}
				left[t]--
				freq[id]++
				if int(freq[id]) == idx.L {
					if err := addCandidate(id); err != nil {
						return nil, err
					}
				}
			}
			for right[t] < idx.n {
				p, id, err := tables.entry(t, right[t])
				if err != nil {
					return nil, err
				}
				if p-pos[t] > half {
					exhausted = false
					break
				}
				right[t]++
				freq[id]++
				if int(freq[id]) == idx.L {
					if err := addCandidate(id); err != nil {
						return nil, err
					}
				}
			}
			if left[t] >= 0 || right[t] < idx.n {
				exhausted = false
			}
		}

		// Termination tests (end of round): enough close candidates, the
		// candidate budget, or fully drained tables.
		if len(cands) >= budget || exhausted {
			break
		}
		closeEnough := 0
		for _, c := range cands {
			if c.Dist <= idx.cfg.C*R {
				closeEnough++
			}
		}
		if closeEnough >= k {
			break
		}
		R *= idx.cfg.C
	}

	sort.Slice(cands, func(i, j int) bool { return cands[i].Dist < cands[j].Dist })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands, nil
}
