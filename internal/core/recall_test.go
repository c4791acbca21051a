package core

import (
	"context"
	"testing"

	"promips/internal/dataset"
)

// TestRecallParityWithPrerank pins the PQ-sketch pre-ranking path's quality
// against the pre-ranking-off path (the pre-change verification order) on a
// fixed workload: recall against the exact top-k must be at parity or
// better with pre-ranking on. Pre-ranking only reorders verification and
// the norm/sketch prunes are exact, so the returned inner products can only
// shift upward — a regression here means the termination logic broke, not
// that a tuning knob drifted.
func TestRecallParityWithPrerank(t *testing.T) {
	data := dataset.Netflix().Generate(1500, 7)
	ix, err := Build(context.Background(), data, t.TempDir(), Options{M: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	const k = 10
	recall := func(noPrerank bool) float64 {
		hits := 0
		total := 0
		for qi := 0; qi < 40; qi++ {
			q := data[qi*37%len(data)]
			exact, err := ix.Exact(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			res, st, err := ix.SearchContext(context.Background(), q, k, SearchParams{NoPrerank: noPrerank})
			if err != nil {
				t.Fatal(err)
			}
			if !noPrerank && ix.sketch != nil && st.Preranked == 0 && st.NormPruned == 0 {
				t.Fatalf("query %d: pre-ranking enabled but neither preranked nor pruned anything", qi)
			}
			got := make(map[uint32]bool, len(res))
			for _, r := range res {
				got[r.ID] = true
			}
			for _, e := range exact {
				total++
				if got[e.ID] {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}

	off := recall(true)
	on := recall(false)
	t.Logf("recall vs exact: prerank off %.4f, on %.4f", off, on)
	if on < off {
		t.Fatalf("pre-ranking reduced recall: on=%.4f < off=%.4f", on, off)
	}
	if off < 0.5 {
		t.Fatalf("baseline recall implausibly low: %.4f", off)
	}
}

// TestPruneIsExact verifies the no-probability-spent claim directly: with
// pre-ranking disabled, the norm prune must leave results bit-identical to
// a brute-force check that the k-th inner product dominates every pruned
// candidate (here approximated by comparing against Exact on the verified
// contract: every returned result's inner product matches a full exact
// evaluation of that id).
func TestPruneIsExact(t *testing.T) {
	data := dataset.Netflix().Generate(800, 9)
	ix, err := Build(context.Background(), data, t.TempDir(), Options{M: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for qi := 0; qi < 20; qi++ {
		q := data[qi*41%len(data)]
		res, st, err := ix.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if st.NormPruned == 0 && st.Candidates == 0 {
			t.Fatalf("query %d did no work", qi)
		}
		for _, r := range res {
			var want float64
			for j, v := range data[r.ID] {
				want += float64(v) * float64(q[j])
			}
			if r.IP != want {
				t.Fatalf("query %d: result id=%d IP=%v, exact evaluation %v", qi, r.ID, r.IP, want)
			}
		}
	}
}
