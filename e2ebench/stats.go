package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted samples
// by the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. Empty input reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// rankOf is ceil(p% of n), computed so that binary rounding of p/100
// cannot push a whole number over the edge (99% of 1000 is rank 990).
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90}

// tailPercentile picks the highest candidate percentile that has at least
// ten samples beyond it, falling back to the lowest candidate: a p99 read
// off two samples is an outlier, not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond := n - rankOf(p, n); beyond >= 10 {
			return p
		}
	}
	return tailPercentiles[len(tailPercentiles)-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(max(1, len(v)))
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver judges spreads by. Fewer than two values read as no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if med := median(v); med != 0 {
		return (q3 - q1) / math.Abs(med)
	}
	return 0
}
