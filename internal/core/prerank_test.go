package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"promips/internal/dataset"
	"promips/internal/idistance"
	"promips/internal/vec"
)

// insertionSelect is the pre-ranking window selection as it was before the
// last-entry test: a binary search for the insertion point of every
// candidate. It is the oracle bestByEstimate and selectPrerank are held to.
func insertionSelect(cands []idistance.Candidate, estimate func(i int) float64, w int) ([]prerankCand, []float64) {
	var sel []prerankCand
	var ests []float64
	for i, cand := range cands {
		est := estimate(i)
		ests = append(ests, est)
		pos := sort.Search(len(sel), func(i int) bool {
			if sel[i].est != est {
				return sel[i].est < est
			}
			return sel[i].cand.ID > cand.ID
		})
		if pos >= w {
			continue
		}
		if len(sel) < w {
			sel = append(sel, prerankCand{})
		}
		copy(sel[pos+1:], sel[pos:])
		sel[pos] = prerankCand{cand: cand, idx: int32(i), est: est}
	}
	return sel, ests
}

// TestPrerankSelectionMatchesInsertion: the window selection with the
// last-entry test picks the same candidates, in the same order, as the
// binary-search insertion — on random estimates drawn from a few values (so
// most comparisons are ties broken by id) at a window of one, of the
// default 48 and wider than the candidate set, and through selectPrerank on
// a real sketch over duplicated points, where the cached estimates (four
// rows per pass) must equal one Estimate of the candidate's layout row, and
// that row must hold the encoding of the candidate's own vector.
func TestPrerankSelectionMatchesInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(2500)
		cands := make([]idistance.Candidate, n)
		ests := make([]float64, n)
		for i, id := range rng.Perm(n) {
			cands[i] = idistance.Candidate{ID: uint32(id), Dist: rng.Float64()}
			ests[i] = float64(rng.Intn(12)) / 4
		}
		for _, w := range []int{1, prerankMinWindow, n + 3} {
			want, _ := insertionSelect(cands, func(i int) float64 { return ests[i] }, w)
			if got := bestByEstimate(nil, cands, ests, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d, w=%d: window\n got %v\nwant %v", trial, n, w, got, want)
			}
		}
	}

	const n = 1200
	data := dataset.Netflix().Generate(n, 17)
	for i := 0; i < n; i += 3 {
		data[i] = data[(i+7)%n] // identical codes: tied estimates
	}
	ix := buildIndex(t, data, Options{Seed: 2, M: 6})
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	posOf := make([]uint32, n)
	for pos, id := range sn.idist.Layout() {
		posOf[id] = uint32(pos)
	}
	codes := make([]byte, sn.sketch.Subspaces())
	for qi := 0; qi < 12; qi++ {
		k := []int{1, 10, 25, 400}[qi%4]
		q := data[qi*37]
		sc := getScratch()
		sc.cands = sc.cands[:0]
		for _, id := range rng.Perm(n)[:300+qi*70+qi%4] {
			sc.cands = append(sc.cands, idistance.Candidate{ID: uint32(id), Pos: posOf[id]})
		}
		sc.lut = sn.sketch.NewLUT(q, sc.lut)
		w := min(max(4*k, prerankMinWindow), len(sc.cands))
		want, wantEsts := insertionSelect(sc.cands, func(i int) float64 { return sn.sketch.Estimate(sc.cands[i].Pos, sc.lut) }, w)
		got := slices.Clone(sc.selectPrerank(sn.sketch, k))
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(sc.ests, wantEsts) {
			t.Fatalf("query %d, k=%d: selectPrerank differs from the insertion oracle", qi, k)
		}
		normQ := math.Sqrt(vec.Norm2Sq(q))
		for _, c := range sc.cands[:20] {
			resid := sn.sketch.Encode(data[c.ID], codes)
			if got, want := sn.sketch.Bound(c.Pos, sc.lut, normQ), sn.sketch.BoundCodes(codes, resid, sc.lut, normQ); got != want {
				t.Fatalf("query %d: row %d bounds %v, the encoding of point %d %v", qi, c.Pos, got, c.ID, want)
			}
		}
		putScratch(sc)
	}
}
