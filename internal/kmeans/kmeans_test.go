package kmeans

import (
	"math/rand"
	"testing"
	"testing/quick"

	"promips/internal/vec"
)

func gaussianBlobs(r *rand.Rand, centers [][]float32, perCluster int, spread float64) [][]float32 {
	var data [][]float32
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			p := make([]float32, len(c))
			for j := range p {
				p[j] = c[j] + float32(r.NormFloat64()*spread)
			}
			data = append(data, p)
		}
	}
	return data
}

func TestRunSeparatedBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	centers := [][]float32{{0, 0}, {100, 0}, {0, 100}}
	data := gaussianBlobs(r, centers, 50, 1.0)
	res := Run(data, Config{K: 3, Seed: 2})
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids, want 3", len(res.Centroids))
	}
	// Each true center must be within distance 2 of some found centroid.
	for _, c := range centers {
		best := 1e18
		for _, f := range res.Centroids {
			if d := vec.L2Dist(c, f); d < best {
				best = d
			}
		}
		if best > 2 {
			t.Errorf("no centroid near %v (closest %.2f)", c, best)
		}
	}
	// All points in one blob should share a cluster.
	for b := 0; b < 3; b++ {
		want := res.Assign[b*50]
		for i := 1; i < 50; i++ {
			if res.Assign[b*50+i] != want {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	res := Run(nil, Config{K: 4})
	if len(res.Centroids) != 0 || len(res.Assign) != 0 {
		t.Fatalf("empty input should give empty result, got %+v", res)
	}
}

func TestRunKLargerThanN(t *testing.T) {
	data := [][]float32{{0, 0}, {1, 1}}
	res := Run(data, Config{K: 10, Seed: 3})
	if len(res.Centroids) != 2 {
		t.Fatalf("K>n should reduce to n clusters, got %d", len(res.Centroids))
	}
	for _, s := range res.Sizes {
		if s == 0 {
			t.Fatal("empty cluster with K>n input")
		}
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	data := make([][]float32, 20)
	for i := range data {
		data[i] = []float32{5, 5, 5}
	}
	res := Run(data, Config{K: 4, Seed: 7})
	for i := range data {
		c := res.Centroids[res.Assign[i]]
		if vec.L2Dist(data[i], c) != 0 {
			t.Fatal("identical points should coincide with their centroid")
		}
	}
}

func TestRunPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=0")
		}
	}()
	Run([][]float32{{1}}, Config{K: 0})
}

func TestRadiiCoverAllPoints(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data := gaussianBlobs(r, [][]float32{{0, 0, 0}, {10, 10, 10}}, 100, 2.0)
	res := Run(data, Config{K: 5, Seed: 4})
	for i, p := range data {
		c := res.Assign[i]
		if d := vec.L2Dist(p, res.Centroids[c]); d > res.Radii[c]+1e-9 {
			t.Fatalf("point %d outside its cluster radius: %v > %v", i, d, res.Radii[c])
		}
	}
}

func TestSizesSumToN(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	data := gaussianBlobs(r, [][]float32{{0, 0}}, 137, 5.0)
	res := Run(data, Config{K: 7, Seed: 5})
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(data) {
		t.Fatalf("sizes sum to %d, want %d", total, len(data))
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	data := gaussianBlobs(r, [][]float32{{0, 0}, {8, 8}}, 40, 1.0)
	a := Run(data, Config{K: 3, Seed: 99})
	b := Run(data, Config{K: 3, Seed: 99})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

// Property: every assignment index is valid and each point is assigned to
// its nearest centroid (Lloyd fixed-point condition after convergence; we
// verify near-optimality: assigned distance <= nearest distance + eps).
func TestPropertyAssignmentsNearest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(80)
		d := 2 + r.Intn(6)
		data := make([][]float32, n)
		for i := range data {
			data[i] = make([]float32, d)
			for j := range data[i] {
				data[i][j] = float32(r.NormFloat64() * 10)
			}
		}
		k := 1 + r.Intn(6)
		res := Run(data, Config{K: k, Seed: seed, MaxIter: 50})
		for i, p := range data {
			if res.Assign[i] < 0 || res.Assign[i] >= len(res.Centroids) {
				return false
			}
			got := vec.L2DistSq(p, res.Centroids[res.Assign[i]])
			for _, c := range res.Centroids {
				if vec.L2DistSq(p, c) < got-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inertia with k+1 clusters is never (meaningfully) worse than the
// best single-cluster solution, i.e. clustering reduces the objective.
func TestPropertyInertiaImproves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := gaussianBlobs(r, [][]float32{{0, 0}, {50, 50}}, 30, 1.0)
		one := Run(data, Config{K: 1, Seed: seed})
		two := Run(data, Config{K: 2, Seed: seed})
		return inertia(data, two) <= inertia(data, one)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// inertia returns the total within-cluster sum of squared distances, the
// objective Lloyd's algorithm descends.
func inertia(data [][]float32, res Result) float64 {
	var s float64
	for i, p := range data {
		s += vec.L2DistSq(p, res.Centroids[res.Assign[i]])
	}
	return s
}

// TestNearestMatchesOneByOne pins the four-at-a-time assignment step to the
// loop it replaced — vec.L2DistSq against each centroid in turn, first
// strictly smaller distance wins — for centroid counts on both sides of the
// group of four, with duplicated centroids so that ties occur.
func TestNearestMatchesOneByOne(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for k := 1; k <= 11; k++ {
		for trial := 0; trial < 200; trial++ {
			cents := make([][]float32, k)
			for c := range cents {
				if c > 0 && r.Intn(3) == 0 {
					cents[c] = cents[r.Intn(c)]
					continue
				}
				cents[c] = []float32{float32(r.Intn(5)), float32(r.NormFloat64()), float32(r.NormFloat64())}
			}
			p := cents[r.Intn(k)]
			if trial%2 == 0 {
				p = []float32{float32(r.Intn(5)), float32(r.NormFloat64()), float32(r.NormFloat64())}
			}
			want, wantD := 0, vec.L2DistSq(p, cents[0])
			for c, cent := range cents {
				if d := vec.L2DistSq(p, cent); d < wantD {
					want, wantD = c, d
				}
			}
			if got := nearest(p, cents); got != want {
				t.Fatalf("k=%d trial=%d: nearest=%d, one-by-one loop says %d", k, trial, got, want)
			}
		}
	}
}

// nearest is nearestEach for one point, the form TestNearestMatchesOneByOne
// holds to the one-by-one loop.
func nearest(p []float32, cents [][]float32) int {
	var best [1]int
	nearestEach([][]float32{p}, cents, best[:])
	return best[0]
}

// TestNearestEachMatchesOneByOne holds the batched assignment step to the
// one-by-one loop for point counts on both sides of the kernel's group of
// four and of nearestChunk, centroid counts 1–11, and duplicated centroids
// and points so that ties occur.
func TestNearestEachMatchesOneByOne(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	draw := func() []float32 {
		return []float32{float32(r.Intn(5)), float32(r.NormFloat64()), float32(r.NormFloat64())}
	}
	for k := 1; k <= 11; k++ {
		for _, n := range []int{0, 1, 3, 4, 5, nearestChunk - 1, nearestChunk, nearestChunk + 5, 3*nearestChunk + 2} {
			cents := make([][]float32, k)
			for c := range cents {
				if c > 0 && r.Intn(3) == 0 {
					cents[c] = cents[r.Intn(c)]
					continue
				}
				cents[c] = draw()
			}
			points := make([][]float32, n)
			for i := range points {
				points[i] = draw()
				if r.Intn(2) == 0 {
					points[i] = cents[r.Intn(k)]
				}
			}
			best := make([]int, n)
			nearestEach(points, cents, best)
			for i, p := range points {
				want, wantD := 0, vec.L2DistSq(p, cents[0])
				for c, cent := range cents {
					if d := vec.L2DistSq(p, cent); d < wantD {
						want, wantD = c, d
					}
				}
				if best[i] != want {
					t.Fatalf("k=%d n=%d point %d: nearestEach=%d, one-by-one loop says %d", k, n, i, best[i], want)
				}
			}
		}
	}
}
