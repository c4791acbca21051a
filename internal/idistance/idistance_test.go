package idistance

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"promips/internal/pager"
	"promips/internal/vec"
)

func randPoints(r *rand.Rand, n, m int, scale float64) [][]float32 {
	pts := make([][]float32, n)
	for i := range pts {
		p := make([]float32, m)
		for j := range p {
			p[j] = float32(r.NormFloat64() * scale)
		}
		pts[i] = p
	}
	return pts
}

// walkAnnuli runs the incremental NN walk over the whole index the way
// Algorithm 1 consumes it: each band sorted, then appended.
func walkAnnuli(idx *Index, q []float32) ([]Candidate, error) {
	var walked []Candidate
	_, err := idx.WalkAnnuli(context.Background(), q, nil, nil, func(band []Candidate) (bool, error) {
		SortCandidates(band)
		walked = append(walked, band...)
		return false, nil
	})
	return walked, err
}

func buildTestIndex(t testing.TB, pts [][]float32, cfg Config) *Index {
	t.Helper()
	idx, err := Build(context.Background(), pts, t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// rangeSearch collects every point within distance r of q, sorted by
// ascending projected distance.
func rangeSearch(idx *Index, q []float32, r float64) ([]Candidate, error) {
	out, err := idx.Search(context.Background(), q, -1, r, nil, nil)
	if err != nil {
		return nil, err
	}
	SortCandidates(out)
	return out, nil
}

// bruteRange returns ids within radius r of q, by linear scan.
func bruteRange(pts [][]float32, q []float32, r float64) map[uint32]float64 {
	out := make(map[uint32]float64)
	for i, p := range pts {
		if d := vec.L2Dist(p, q); d <= r {
			out[uint32(i)] = d
		}
	}
	return out
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(context.Background(), nil, t.TempDir(), Config{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestBuildEntryTooLarge(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(1)), 10, 100, 1)
	if _, err := Build(context.Background(), pts, t.TempDir(), Config{PageSize: 256}); err == nil {
		t.Fatal("expected error: 100-dim entry exceeds 256B page")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 3000, 6, 10)
	idx := buildTestIndex(t, pts, Config{Kp: 5, Nkey: 20, Ksp: 8, Seed: 3, PageSize: 512})
	for trial := 0; trial < 20; trial++ {
		q := randPoints(r, 1, 6, 10)[0]
		radius := 2 + r.Float64()*20
		want := bruteRange(pts, q, radius)
		got, err := rangeSearch(idx, q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: range search found %d, brute force %d (r=%.2f)", trial, len(got), len(want), radius)
		}
		for _, c := range got {
			wd, ok := want[c.ID]
			if !ok {
				t.Fatalf("trial %d: spurious candidate %d at %.3f", trial, c.ID, c.Dist)
			}
			if diff := c.Dist - wd; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("trial %d: distance mismatch for %d: %v vs %v", trial, c.ID, c.Dist, wd)
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
			t.Fatal("range search results not sorted")
		}
	}
}

func TestAnnulusSearchExcludesInnerBall(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 2000, 5, 10)
	idx := buildTestIndex(t, pts, Config{Seed: 5, PageSize: 512})
	q := randPoints(r, 1, 5, 10)[0]
	rLo, rHi := 8.0, 16.0
	seen := make(map[uint32]bool)
	// Search appends: what out already holds stays in front.
	prefix := []Candidate{{ID: 1 << 30}}
	got, err := idx.Search(context.Background(), q, rLo, rHi, nil, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != prefix[0] {
		t.Fatalf("Search overwrote the slice it appends to: %v", got[0])
	}
	for _, c := range got[1:] {
		if c.Dist <= rLo || c.Dist > rHi {
			t.Fatalf("candidate %d at %.3f outside annulus (%v,%v]", c.ID, c.Dist, rLo, rHi)
		}
		seen[c.ID] = true
	}
	for i, p := range pts {
		d := vec.L2Dist(p, q)
		if d > rLo && d <= rHi && !seen[uint32(i)] {
			t.Fatalf("missed point %d at distance %.3f", i, d)
		}
	}
}

// TestCandidatePositions: every candidate a search reports carries its
// layout position — Layout()[Pos] == ID — and its distance bit for bit as
// one L2Dist of the point's projected vector; a range search, an annulus
// (the compensation pass's shape) and the annulus walk see positions
// ascending within one Search. Checked on a fresh build, on its reopened
// copy and on the legacy fixture, whose sub-partition positions Open
// derives from a directory read out of the old tree file.
func TestCandidatePositions(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pts := randPoints(r, 2500, 6, 10)
	dir := t.TempDir()
	fresh, err := Build(context.Background(), pts, dir, Config{Seed: 23, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Save(dir); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	legacy, err := Open(copyLegacyFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	legacyPts := randPoints(rand.New(rand.NewSource(40)), 300, 4, 10)

	for _, tc := range []struct {
		name string
		idx  *Index
		pts  [][]float32
	}{{"fresh", fresh, pts}, {"reopened", reopened, pts}, {"legacy", legacy, legacyPts}} {
		layout := tc.idx.Layout()
		check := func(what string, cands []Candidate, ascending bool) {
			t.Helper()
			for i, c := range cands {
				if int(c.Pos) >= len(layout) || layout[c.Pos] != c.ID {
					t.Fatalf("%s %s: candidate %d at position %d, layout holds %v there", tc.name, what, c.ID, c.Pos, layout[min(int(c.Pos), len(layout)-1)])
				}
				if ascending && i > 0 && c.Pos <= cands[i-1].Pos {
					t.Fatalf("%s %s: positions %d then %d", tc.name, what, cands[i-1].Pos, c.Pos)
				}
			}
		}
		m := len(tc.pts[0])
		for trial := 0; trial < 8; trial++ {
			q := randPoints(r, 1, m, 10)[0]
			rad := 3 + r.Float64()*12
			ranged, err := tc.idx.Search(context.Background(), q, -1, rad, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("range", ranged, true)
			for _, c := range ranged {
				if d := vec.L2Dist(tc.pts[c.ID], q); d != c.Dist {
					t.Fatalf("%s: candidate %d at %v, L2Dist %v", tc.name, c.ID, c.Dist, d)
				}
			}
			annulus, err := tc.idx.Search(context.Background(), q, rad, 2*rad, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("annulus", annulus, true)
			walked, err := walkAnnuli(tc.idx, q)
			if err != nil || len(walked) != len(tc.pts) {
				t.Fatalf("%s: iterator yielded %d of %d points (%v)", tc.name, len(walked), len(tc.pts), err)
			}
			check("iterator", walked, false)
		}
	}
}

func TestIteratorReturnsAscendingOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 1500, 6, 10)
	idx := buildTestIndex(t, pts, Config{Seed: 9, PageSize: 512})
	q := randPoints(r, 1, 6, 10)[0]
	walked, err := walkAnnuli(idx, q)
	if err != nil {
		t.Fatal(err)
	}
	var dists []float64
	seen := make(map[uint32]bool)
	for _, c := range walked {
		if seen[c.ID] {
			t.Fatalf("iterator yielded %d twice", c.ID)
		}
		seen[c.ID] = true
		dists = append(dists, c.Dist)
	}
	if len(dists) != len(pts) {
		t.Fatalf("iterator yielded %d of %d points", len(dists), len(pts))
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("iterator distances not ascending")
	}
}

func TestIteratorMatchesExactNNOrder(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	pts := randPoints(r, 800, 5, 8)
	idx := buildTestIndex(t, pts, Config{Seed: 11, PageSize: 512})
	q := randPoints(r, 1, 5, 8)[0]

	type nn struct {
		id uint32
		d  float64
	}
	exact := make([]nn, len(pts))
	for i, p := range pts {
		exact[i] = nn{uint32(i), vec.L2Dist(p, q)}
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i].d < exact[j].d })

	walked, err := walkAnnuli(idx, q)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		if k >= len(walked) {
			t.Fatalf("iterator exhausted at %d", k)
		}
		c := walked[k]
		// Compare distances, not ids (ties may reorder).
		if diff := c.Dist - exact[k].d; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("NN %d: iterator dist %.6f, exact %.6f", k, c.Dist, exact[k].d)
		}
	}
}

func TestIteratorFindsExactDuplicateOfQuery(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := randPoints(r, 300, 4, 5)
	q := vec.Clone(pts[42])
	idx := buildTestIndex(t, pts, Config{Seed: 13, PageSize: 512})
	walked, err := walkAnnuli(idx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(walked) == 0 {
		t.Fatal("iterator empty")
	}
	if c := walked[0]; c.Dist > 1e-6 {
		t.Fatalf("first NN at distance %v, want 0 (duplicate of query)", c.Dist)
	}
}

func TestProjectedFetch(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	pts := randPoints(r, 400, 6, 10)
	idx := buildTestIndex(t, pts, Config{Seed: 15, PageSize: 512})
	for _, pos := range []int{0, 7, 399} {
		got, err := idx.Projected(pos, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := pts[idx.Layout()[pos]]; !slices.Equal(got, want) {
			t.Fatalf("Projected(%d) = %v, want point %d = %v", pos, got, idx.Layout()[pos], want)
		}
	}
	for _, pos := range []int{-1, 400} {
		if _, err := idx.Projected(pos, nil, nil); err == nil {
			t.Fatalf("Projected(%d) of 400 points: no error", pos)
		}
	}
}

func TestLayoutIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	pts := randPoints(r, 700, 5, 10)
	idx := buildTestIndex(t, pts, Config{Seed: 17, PageSize: 512})
	layout := idx.Layout()
	if len(layout) != len(pts) {
		t.Fatalf("layout has %d entries, want %d", len(layout), len(pts))
	}
	seen := make(map[uint32]bool, len(layout))
	for _, id := range layout {
		if seen[id] {
			t.Fatalf("id %d appears twice in layout", id)
		}
		seen[id] = true
	}
}

func TestSinglePointIndex(t *testing.T) {
	pts := [][]float32{{1, 2, 3}}
	idx := buildTestIndex(t, pts, Config{Seed: 18, PageSize: 512})
	got, err := rangeSearch(idx, []float32{1, 2, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("range search on singleton = %v", got)
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := make([][]float32, 50)
	for i := range pts {
		pts[i] = []float32{7, 7}
	}
	idx := buildTestIndex(t, pts, Config{Seed: 19, PageSize: 512})
	got, err := rangeSearch(idx, []float32{7, 7}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("found %d of 50 identical points", len(got))
	}
}

func TestPageAccessAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	pts := randPoints(r, 3000, 6, 10)
	idx := buildTestIndex(t, pts, Config{Seed: 21, PageSize: 512, PoolSize: 4096})
	q := randPoints(r, 1, 6, 10)[0]
	var small, large pager.IOStats
	if _, err := idx.Search(context.Background(), q, -1, 5, &small, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(context.Background(), q, -1, 30, &large, nil); err != nil {
		t.Fatal(err)
	}
	if small.Pages() <= 0 || large.Pages() <= small.Pages() {
		t.Fatalf("page accesses should grow with radius: small=%d large=%d", small.Pages(), large.Pages())
	}
	if total := idx.data.NumPages(); large.Pages() > total {
		t.Fatalf("page accesses %d exceed total pages %d", large.Pages(), total)
	}
}

// Property: for random data, radius and query, the range search equals
// brute force exactly.
func TestPropertyRangeSearchComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(400)
		m := 3 + r.Intn(5)
		pts := randPoints(r, n, m, 5)
		dir := t.TempDir()
		idx, err := Build(context.Background(), pts, dir, Config{Kp: 1 + r.Intn(4), Nkey: 5 + r.Intn(30),
			Ksp: 1 + r.Intn(8), Seed: seed, PageSize: 512})
		if err != nil {
			return false
		}
		defer idx.Close()
		q := randPoints(r, 1, m, 5)[0]
		radius := r.Float64() * 15
		want := bruteRange(pts, q, radius)
		got, err := rangeSearch(idx, q, radius)
		if err != nil || len(got) != len(want) {
			return false
		}
		for _, c := range got {
			if _, ok := want[c.ID]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRingsInSubRange: the ring walk returns exactly the rings whose keys
// lie in the range, in key order, and nothing for a range in a gap, past the
// last key or with lo > hi.
func TestRingsInSubRange(t *testing.T) {
	idx := &Index{}
	for k := int64(0); k < 200; k += 2 {
		idx.rings = append(idx.rings, ring{key: k})
	}
	keysIn := func(lo, hi int64) []int64 {
		var keys []int64
		for _, rg := range idx.ringsIn(lo, hi) {
			keys = append(keys, rg.key)
		}
		return keys
	}
	if got := keysIn(10, 20); !slices.Equal(got, []int64{10, 12, 14, 16, 18, 20}) {
		t.Fatalf("sub-range walk = %v", got)
	}
	if got := keysIn(-100, 1<<40); len(got) != len(idx.rings) || got[0] != 0 || got[len(got)-1] != 198 {
		t.Fatalf("full-range walk visited %d rings, want %d", len(got), len(idx.rings))
	}
	if got := keysIn(198, 198); !slices.Equal(got, []int64{198}) {
		t.Fatalf("point walk of the last key = %v", got)
	}
	for _, r := range [][2]int64{{11, 11}, {199, 300}, {50, 40}} {
		if got := keysIn(r[0], r[1]); len(got) != 0 {
			t.Fatalf("walk of [%d, %d] should visit nothing, got %v", r[0], r[1], got)
		}
	}
}

// Property: a ring directory over any sorted key set, with directories of
// any size and each sub-partition at its layout position (the layout Build
// writes), persists as a meta's RingKeys and RingDirs and decodes back to
// exactly the rings it was written from; the ring walk over any key range
// returns exactly the model's rings inside it.
func TestPropertyRingDirectoryModelEquivalence(t *testing.T) {
	const dataPages = 1 << 20
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &meta{M: 1 + r.Intn(8), Stride: int64(1 + r.Intn(60)), EntriesPerPage: 1 + r.Intn(40)}
		m.Centers = make([][]float32, 1+r.Intn(6))
		maxKey := int64(len(m.Centers))*m.Stride - 1
		var model []ring
		for key := int64(0); key <= maxKey; key++ {
			if r.Intn(3) != 0 && (key < maxKey || len(model) > 0) {
				continue
			}
			rg := ring{key: key}
			for s := 1 + r.Intn(12); s > 0; s-- {
				sub := subPartition{center: randPoints(r, 1, m.M, 10)[0], radius: r.Float64() * 10,
					startPos: m.N, numPoints: 1 + r.Intn(200)}
				m.N += sub.numPoints
				rg.subs = append(rg.subs, sub)
			}
			m.RingKeys, m.RingDirs = append(m.RingKeys, key), appendSubs(m.RingDirs, rg.subs, m.M, m.EntriesPerPage)
			model = append(model, rg)
		}
		m = decodeMetaBytes(t, encodeMeta(t, m))
		rings, err := m.ringDirectory(m.RingKeys, m.splitDirs(), dataPages)
		if err != nil || !reflect.DeepEqual(rings, model) {
			return false
		}
		idx := &Index{rings: rings}
		lo, hi := r.Int63n(maxKey+20)-10, r.Int63n(maxKey+20)-10
		var want []ring
		for _, rg := range model {
			if lo <= rg.key && rg.key <= hi {
				want = append(want, rg)
			}
		}
		got := idx.ringsIn(lo, hi)
		return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
