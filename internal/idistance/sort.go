package idistance

import (
	"math/bits"
	"slices"
)

// SortCandidates sorts by the CompareCandidates order (ascending distance,
// id tie-break). The order is a strict total order, so every correct
// comparison sort produces the same permutation.
func SortCandidates(s []Candidate) {
	slices.SortFunc(s, CompareCandidates)
}

func candLess(a, b Candidate) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// sortCutoff is the segment size below which insertion sort takes over.
const sortCutoff = 16

// partitionCand partitions s around a median-of-three pivot and returns the
// split point m with s[:m] ≤ pivot ≤ s[m:] and 0 < m < len(s) (classical
// Hoare partition with the pivot parked at index 0, which guarantees both
// splits are non-empty). len(s) must exceed 1.
func partitionCand(s []Candidate) int {
	m := medianOf3(s)
	s[0], s[m] = s[m], s[0]
	pivot := s[0]
	i, j := -1, len(s)
	for {
		for {
			i++
			if !candLess(s[i], pivot) {
				break
			}
		}
		for {
			j--
			if !candLess(pivot, s[j]) {
				break
			}
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	return j + 1
}

// insertionCand sorts a short run in place.
func insertionCand(s []Candidate) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && candLess(v, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// CandidateStream yields the elements of a candidate slice in
// CompareCandidates order without sorting the suffix that is never
// consumed. The query path collects thousands of candidates but usually
// verifies only a fraction before Condition B terminates the search, so a
// full upfront sort wastes most of its work; the stream quicksorts lazily —
// partitioning toward the front, insertion-sorting only the run about to be
// yielded — for an O(n + consumed·log n) expected cost. The yield order is
// exactly the sorted order (the comparison order is strictly total), so
// consuming a stream is bit-identical to iterating a sorted slice.
//
// The stream reorders s in place and keeps state in pooled storage: Init
// with a scratch bounds slice to make steady-state streaming allocation
// free.
type CandidateStream struct {
	s         []Candidate
	pos       int   // next element to yield
	sortedEnd int   // s[pos:sortedEnd] is sorted and ready to yield
	bounds    []int // segment ends: s[pos:bounds[last]] ≤ s[bounds[last]:bounds[last-1]] ≤ …
	parts     int   // partitions performed, for the pathological-input fallback
	maxParts  int
}

// Init binds the stream to s. The stream's own storage (the segment stack)
// is reused across Inits, so a stream embedded in a pooled per-query
// scratch streams without allocating.
func (cs *CandidateStream) Init(s []Candidate) {
	cs.s = s
	cs.pos = 0
	cs.sortedEnd = 0
	cs.bounds = append(cs.bounds[:0], len(s))
	cs.parts = 0
	// A full lazy sort performs about len(s)/sortCutoff·2 partitions;
	// quadratic behaviour blows well past this budget and trips the
	// fallback in refine.
	cs.maxParts = len(s)/4 + 4*bits.Len(uint(len(s))) + 4
}

// Next yields the next candidate in ascending order.
func (cs *CandidateStream) Next() (Candidate, bool) {
	if cs.pos < cs.sortedEnd {
		c := cs.s[cs.pos]
		cs.pos++
		return c, true
	}
	if cs.pos >= len(cs.s) {
		return Candidate{}, false
	}
	cs.refine()
	c := cs.s[cs.pos]
	cs.pos++
	return c, true
}

// refine narrows the front segment until it is a short run, insertion-sorts
// it and marks it ready.
func (cs *CandidateStream) refine() {
	top := cs.bounds[len(cs.bounds)-1]
	for top == cs.pos { // segment exhausted: pop
		cs.bounds = cs.bounds[:len(cs.bounds)-1]
		top = cs.bounds[len(cs.bounds)-1]
	}
	for top-cs.pos > sortCutoff {
		if cs.parts++; cs.parts > cs.maxParts {
			// Pathological pivots: finish this segment with the bounded
			// sort and stop partitioning.
			SortCandidates(cs.s[cs.pos:top])
			break
		}
		m := cs.pos + partitionCand(cs.s[cs.pos:top])
		cs.bounds = append(cs.bounds, m)
		top = m
	}
	insertionCand(cs.s[cs.pos:top])
	cs.sortedEnd = top
}

// medianOf3 returns the index of the median of the first, middle and last
// elements.
func medianOf3(s []Candidate) int {
	ia, ib, ic := 0, len(s)/2, len(s)-1
	if candLess(s[ib], s[ia]) {
		ia, ib = ib, ia
	}
	if candLess(s[ic], s[ib]) {
		ib = ic
		if candLess(s[ib], s[ia]) {
			ib = ia
		}
	}
	return ib
}
