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
	closest := make([]int, len(data))
	iters := 0
	for iter := 0; iter < cfg.MaxIter; iter++ {
		iters = iter + 1
		changed := 0
		nearestEach(data, cents, closest)
		for i, best := range closest {
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

// nearestEach sets best[i] to the index of the centroid closest to
// points[i], the first one on ties, for every i. Points are taken
// nearestChunk at a time, and each centroid scores a chunk in one
// vec.L2DistSqEach call; every point compares its distances in centroid
// order, so they and its first-strictly-smaller winner are those of a
// one-by-one vec.L2DistSq(p, cent) loop.
func nearestEach(points, cents [][]float32, best []int) {
	var dist, bestD [nearestChunk]float64
	for lo := 0; lo < len(points); lo += nearestChunk {
		chunk := points[lo:min(lo+nearestChunk, len(points))]
		b, bd, d := best[lo:lo+len(chunk)], bestD[:len(chunk)], dist[:len(chunk)]
		for i := range b {
			b[i], bd[i] = 0, math.Inf(1)
		}
		for c, cent := range cents {
			vec.L2DistSqEach(chunk, cent, d)
			for i, dd := range d {
				if dd < bd[i] {
					b[i], bd[i] = c, dd
				}
			}
		}
	}
}

// nearestChunk is how many points nearestEach scores per kernel call: their
// distances live in stack arrays of this length.
const nearestChunk = 128

// seedPlusPlus chooses k initial centroids with k-means++ (D² sampling).
func seedPlusPlus(data [][]float32, k int, r *rand.Rand) [][]float32 {
	cents := make([][]float32, 0, k)
	first := data[r.Intn(len(data))]
	cents = append(cents, vec.Clone(first))
	dist, next := make([]float64, len(data)), make([]float64, len(data))
	vec.L2DistSqEach(data, cents[0], dist)
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
		vec.L2DistSqEach(data, c, next)
		for i, d := range next {
			if d < dist[i] {
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
