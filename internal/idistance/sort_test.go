package idistance

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortCandidates cross-checks SortCandidates against the stdlib on
// adversarial shapes: the order is strictly total (distance, then id), so
// the two must agree element-for-element.
func TestSortCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(n int, mode int) []Candidate {
		s := make([]Candidate, n)
		for i := range s {
			var d float64
			switch mode {
			case 0:
				d = rng.Float64()
			case 1:
				d = float64(i) // already sorted
			case 2:
				d = float64(n - i) // reversed
			case 3:
				d = 7.5 // all equal: only the id tie-break orders
			case 4:
				d = float64(rng.Intn(4)) // heavy duplicates
			case 5:
				if i == n-1 {
					d = 1e18 // unique max at the last position
				}
			}
			s[i] = Candidate{ID: uint32(rng.Intn(n*2 + 1)), Dist: d}
		}
		return s
	}
	for mode := 0; mode <= 5; mode++ {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 3000} {
			got := gen(n, mode)
			want := slices.Clone(got)
			SortCandidates(got)
			slices.SortFunc(want, CompareCandidates)
			if !slices.Equal(got, want) {
				t.Fatalf("mode=%d n=%d: SortCandidates diverges from reference", mode, n)
			}
		}
	}
}

// TestCandidateStream asserts the lazy stream yields exactly the sorted
// sequence — fully consumed and partially consumed, with the stream state
// reused across inits the way the pooled query scratch reuses it.
func TestCandidateStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var cs CandidateStream
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(5000)
		s := make([]Candidate, n)
		for i := range s {
			d := rng.Float64()
			if rng.Intn(3) == 0 {
				d = float64(rng.Intn(5)) // duplicate-heavy
			}
			s[i] = Candidate{ID: uint32(rng.Intn(n + 1)), Dist: d}
		}
		want := slices.Clone(s)
		slices.SortFunc(want, CompareCandidates)

		consume := n
		if trial%2 == 0 && n > 0 {
			consume = rng.Intn(n) // partial consumption, the hot-path shape
		}
		cs.Init(s)
		for i := 0; i < consume; i++ {
			c, ok := cs.Next()
			if !ok {
				t.Fatalf("trial %d: stream dried up at %d of %d", trial, i, consume)
			}
			if c != want[i] {
				t.Fatalf("trial %d: element %d = %+v, want %+v", trial, i, c, want[i])
			}
		}
		if consume == n {
			if _, ok := cs.Next(); ok {
				t.Fatalf("trial %d: stream yielded beyond its input", trial)
			}
		}
	}
}
