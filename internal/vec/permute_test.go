package vec

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermuteRows: PermuteRows gathers rows in place along any permutation
// (identity, one cycle, many short cycles, random) at row widths 1 and 3,
// UnpermuteRows undoes it into a copy without touching its input, and an
// order that is not a permutation panics instead of looping.
func TestPermuteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 64, 65, 1000} {
		orders := map[string][]uint32{"identity": make([]uint32, n), "cycle": make([]uint32, n), "swaps": make([]uint32, n), "random": make([]uint32, n)}
		for i := range n {
			orders["identity"][i] = uint32(i)
			orders["cycle"][i] = uint32((i + 1) % n)
			orders["swaps"][i] = uint32(i ^ 1)
			if i^1 >= n {
				orders["swaps"][i] = uint32(i)
			}
		}
		for i, p := range rng.Perm(n) {
			orders["random"][i] = uint32(p)
		}
		for name, order := range orders {
			for _, width := range []int{1, 3} {
				orig := make([]int, n*width)
				for i := range orig {
					orig[i] = i
				}
				s := slices.Clone(orig)
				PermuteRows(s, width, order)
				for r, from := range order {
					if !slices.Equal(s[r*width:(r+1)*width], orig[int(from)*width:(int(from)+1)*width]) {
						t.Fatalf("%s n=%d width=%d: row %d holds %v, want old row %d", name, n, width, r, s[r*width:(r+1)*width], from)
					}
				}
				permuted := slices.Clone(s)
				if back := UnpermuteRows(s, width, order); !slices.Equal(back, orig) || !slices.Equal(s, permuted) {
					t.Fatalf("%s n=%d width=%d: UnpermuteRows did not restore the rows or touched its input", name, n, width)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PermuteRows accepted an order with a repeated row")
		}
	}()
	PermuteRows([]int{0, 1, 2}, 1, []uint32{1, 2, 1})
}
