// Package kmeans implements Lloyd's algorithm with k-means++ seeding.
// It is the clustering substrate for three subsystems of this repository:
// the two-stage partitioning of the iDistance index (paper §VI), the coarse
// quantizer of the PQ baseline, and the per-subspace codebooks of product
// quantization.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"promips/internal/vec"
)

// Result holds the output of a clustering run.
type Result struct {
	// Centroids is the list of k cluster centers (k may be reduced when the
	// input has fewer distinct points than requested clusters).
	Centroids [][]float32
	// Assign maps each input point to the index of its centroid.
	Assign []int
	// Radii[i] is the maximum distance from centroid i to any of its points;
	// iDistance partitions and sub-partitions are spheres (center, radius).
	Radii []float64
	// Sizes[i] is the number of points assigned to centroid i.
	Sizes []int
	// Iterations is the number of Lloyd iterations actually run.
	Iterations int
}

// Config controls a clustering run.
type Config struct {
	K        int
	MaxIter  int   // default 25
	Seed     int64 // RNG seed for k-means++ and empty-cluster repair
	MinDelta float64
}

// Run clusters data into cfg.K groups. It never returns empty clusters:
// if a cluster loses all points it is re-seeded on the point farthest from
// its centroid. When len(data) <= K, each point becomes its own cluster.
func Run(data [][]float32, cfg Config) Result {
	if cfg.K <= 0 {
		panic(fmt.Sprintf("kmeans: K must be positive, got %d", cfg.K))
	}
	if len(data) == 0 {
		return Result{}
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 25
	}
	k := cfg.K
	if k > len(data) {
		k = len(data)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	cents := seedPlusPlus(data, k, r)
	assign := make([]int, len(data))
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for iter := 0; iter < cfg.MaxIter; iter++ {
		iters = iter + 1
		changed := 0
		for i, p := range data {
			best := nearest(p, cents)
			if assign[i] != best {
				assign[i] = best
				changed++
			}
		}
		cents = recompute(data, assign, cents, r)
		if changed == 0 {
			break
		}
	}

	radii := make([]float64, len(cents))
	sizes := make([]int, len(cents))
	for i, p := range data {
		c := assign[i]
		sizes[c]++
		if d := vec.L2Dist(p, cents[c]); d > radii[c] {
			radii[c] = d
		}
	}
	return Result{Centroids: cents, Assign: assign, Radii: radii, Sizes: sizes, Iterations: iters}
}

// nearest returns the index of the centroid closest to p, the first one on
// ties. Centroids are scored four per pass (vec.L2DistSq4: one add chain per
// centroid instead of one in all) and compared in index order, so the
// distances and the first-strictly-smaller winner are those of a one-by-one
// vec.L2DistSq(p, cent) loop (the kernel takes the difference the other way
// round; its square is the same float).
func nearest(p []float32, cents [][]float32) int {
	best, bestD := 0, math.Inf(1)
	c := 0
	for ; c+4 <= len(cents); c += 4 {
		d0, d1, d2, d3 := vec.L2DistSq4(cents[c], cents[c+1], cents[c+2], cents[c+3], p)
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	for ; c < len(cents); c++ {
		if d := vec.L2DistSq(cents[c], p); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// seedPlusPlus chooses k initial centroids with k-means++ (D² sampling).
func seedPlusPlus(data [][]float32, k int, r *rand.Rand) [][]float32 {
	cents := make([][]float32, 0, k)
	first := data[r.Intn(len(data))]
	cents = append(cents, vec.Clone(first))
	dist := make([]float64, len(data))
	for i, p := range data {
		dist[i] = vec.L2DistSq(p, cents[0])
	}
	for len(cents) < k {
		var total float64
		for _, d := range dist {
			total += d
		}
		var chosen int
		if total <= 0 {
			// All remaining points coincide with a centroid; pick uniformly.
			chosen = r.Intn(len(data))
		} else {
			target := r.Float64() * total
			acc := 0.0
			chosen = len(data) - 1
			for i, d := range dist {
				acc += d
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		c := vec.Clone(data[chosen])
		cents = append(cents, c)
		for i, p := range data {
			if d := vec.L2DistSq(p, c); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return cents
}

// recompute rebuilds centroids as assigned-point means, re-seeding any empty
// cluster on the globally farthest point so cluster count never shrinks.
func recompute(data [][]float32, assign []int, cents [][]float32, r *rand.Rand) [][]float32 {
	dim := len(data[0])
	sums := make([][]float64, len(cents))
	counts := make([]int, len(cents))
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	for i, p := range data {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			sums[c][j] += float64(v)
		}
	}
	out := make([][]float32, len(cents))
	for c := range cents {
		if counts[c] == 0 {
			out[c] = vec.Clone(data[farthestPoint(data, assign, cents, r)])
			continue
		}
		nc := make([]float32, dim)
		for j := range nc {
			nc[j] = float32(sums[c][j] / float64(counts[c]))
		}
		out[c] = nc
	}
	return out
}

func farthestPoint(data [][]float32, assign []int, cents [][]float32, r *rand.Rand) int {
	best, bestD := r.Intn(len(data)), -1.0
	for i, p := range data {
		if d := vec.L2DistSq(p, cents[assign[i]]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Inertia returns the total within-cluster sum of squared distances, the
// objective Lloyd's algorithm descends.
func Inertia(data [][]float32, res Result) float64 {
	var s float64
	for i, p := range data {
		s += vec.L2DistSq(p, res.Centroids[res.Assign[i]])
	}
	return s
}
