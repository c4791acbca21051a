package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {90, 90}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("no samples: got %g", got)
	}
}

// The tail is the highest of p99, p95, p90 with at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3360, 99}, {1000, 99}, {999, 95}, {307, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 90}, {5, 90}, // too few for any candidate: the lowest is reported
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one value = %g, want 0", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		a, b []float64
		m    boundedMetric
		want string
	}{
		{steady, []float64{105, 104, 106, 105, 105}, lower, "ok"},
		{steady, []float64{115, 114, 116, 115, 115}, lower, "worse"},
		{steady, []float64{85, 84, 86, 85, 85}, lower, "ok"}, // better is never worse
		{steady, []float64{85, 84, 86, 85, 85}, higher, "worse"},
		{steady, []float64{115, 114, 116, 115, 115}, higher, "ok"},
		{steady, []float64{70, 100, 130, 85, 115}, lower, "unresolved"}, // spread wider than the bound
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a, c.b, c.m.Better, got, c.want)
		}
	}
}
