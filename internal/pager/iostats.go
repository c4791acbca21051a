package pager

// IOStats accumulates one caller's I/O across any number of pagers. It is
// the per-query accounting channel: searches thread one accumulator through
// every page read they issue, so the paper's Page Access metric is measured
// per query without resetting (or even looking at) the pagers' shared
// counters — which is what makes concurrent queries over one index
// measurable at all.
//
// Recording runs once per page read on the query hot path, so it neither
// hashes nor logs: each pager the caller touches gets a bitset with one bit
// per page, and a page is counted the first time its bit is set. A query
// touches two or three pagers, so the set is found by a linear search that
// starts at the last one used.
//
// The zero value is ready to use. A nil *IOStats is valid everywhere one is
// accepted and discards the accounting. An IOStats is NOT safe for
// concurrent use: each query owns its own.
type IOStats struct {
	// Reads counts logical page reads: one per page of every Read.
	Reads int64

	pages int64     // distinct pages noted
	sets  []pageSet // as many as the most pagers one query has touched
	last  int       // the set noted last
}

// pageSet is the pages of one pager an IOStats has noted.
type pageSet struct {
	pager uint64   // the Pager's id
	bits  []uint64 // bit i%64 of word i/64 is page i; grown on demand
	words []int    // the words with a bit set, which Reset clears
}

func (s *IOStats) record(pager uint64, page int64) {
	if s == nil {
		return
	}
	s.Reads++
	s.note(pager, page)
}

// note adds the page to the distinct pages without counting a read.
func (s *IOStats) note(pager uint64, page int64) {
	if s == nil {
		return
	}
	ps := s.set(pager)
	w, bit := int(page>>6), uint64(1)<<(page&63)
	if w >= len(ps.bits) {
		ps.bits = append(ps.bits, make([]uint64, w+1-len(ps.bits))...)
	}
	switch x := ps.bits[w]; {
	case x&bit != 0:
		return
	case x == 0:
		ps.words = append(ps.words, w)
	}
	ps.bits[w] |= bit
	s.pages++
}

// set returns pager's page set. A pager without one takes a set that holds
// no page, or a new one: the query scratch that owns the accumulator is
// pooled across every index (and shard) of a process, and only the pagers
// of one query need a set at a time.
func (s *IOStats) set(pager uint64) *pageSet {
	if s.last < len(s.sets) && s.sets[s.last].pager == pager {
		return &s.sets[s.last]
	}
	empty := -1
	for i := range s.sets {
		if s.sets[i].pager == pager {
			s.last = i
			return &s.sets[i]
		}
		if empty < 0 && len(s.sets[i].words) == 0 {
			empty = i
		}
	}
	if empty < 0 {
		s.sets = append(s.sets, pageSet{})
		empty = len(s.sets) - 1
	}
	s.sets[empty].pager = pager
	s.last = empty
	return &s.sets[empty]
}

// Pages returns the number of distinct pages touched — the paper's Page
// Access metric: the pages a query would have to fetch into an empty cache
// large enough to hold its working set.
func (s *IOStats) Pages() int64 {
	if s == nil {
		return 0
	}
	return s.pages
}

// Reset clears the accumulator for reuse, keeping its storage: only the
// words the caller's pages set are cleared.
func (s *IOStats) Reset() {
	if s == nil {
		return
	}
	s.Reads = 0
	s.pages = 0
	for i := range s.sets {
		ps := &s.sets[i]
		for _, w := range ps.words {
			ps.bits[w] = 0
		}
		ps.words = ps.words[:0]
	}
}
