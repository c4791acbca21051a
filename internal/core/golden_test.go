package core

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"promips/internal/dataset"
	"promips/internal/randproj"
	"promips/internal/vec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/search_golden.json from the current implementation")

// goldenResult is one result with its inner product as exact float64 bits,
// so the comparison is bit-level, not within-epsilon.
type goldenResult struct {
	ID     uint32 `json:"id"`
	IPBits uint64 `json:"ip_bits"`
}

// goldenStats is the comparable subset of SearchStats (radii as float bits).
type goldenStats struct {
	Candidates    int    `json:"candidates"`
	PageAccesses  int64  `json:"page_accesses"`
	GroupsProbed  int    `json:"groups_probed"`
	RadiusBits    uint64 `json:"radius_bits"`
	ExtRadiusBits uint64 `json:"ext_radius_bits"`
	TerminatedBy  string `json:"terminated_by"`
}

// goldenQuery records everything one query returned: results and the full
// per-query stats.
type goldenQuery struct {
	Results []goldenResult `json:"results"`
	Stats   goldenStats    `json:"stats"`
}

type goldenFile struct {
	Search      []goldenQuery `json:"search"`
	Overrides   []goldenQuery `json:"search_c8_p7"`
	Incremental []goldenQuery `json:"incremental"`
}

func capture(t *testing.T, res []Result, st SearchStats) goldenQuery {
	t.Helper()
	g := goldenQuery{Stats: goldenStats{
		Candidates:    st.Candidates,
		PageAccesses:  st.PageAccesses,
		GroupsProbed:  st.GroupsProbed,
		RadiusBits:    math.Float64bits(st.Radius),
		ExtRadiusBits: math.Float64bits(st.ExtendedRadius),
		TerminatedBy:  st.TerminatedBy,
	}}
	for _, r := range res {
		g.Results = append(g.Results, goldenResult{ID: r.ID, IPBits: math.Float64bits(r.IP)})
	}
	return g
}

// TestSearchGolden pins the query path bit-for-bit: a fixed-seed index and
// workload must reproduce the committed results (ids AND float bits of every
// inner product and radius) and per-query stats exactly.
//
// Regeneration history: the file was first generated before the PR 3
// zero-copy/scratch hot-path rewrite and pinned that rewrite to bit-equal
// results. It was regenerated for PR 4's I/O engine, which INTENTIONALLY
// changes what a query verifies (not what it returns a guarantee for):
// PQ-sketch pre-ranking verifies the estimated-best candidates first, and
// the exact norm/sketch bounds skip candidates that provably cannot enter
// the top-k, so Candidates/PageAccesses drop and the returned set can only
// shift toward higher inner products (every result is still exactly
// verified; TestRecallParityWithPrerank pins recall against the
// pre-ranking-off path). Since then this file again gates perf changes to
// bit-identical behavior. It was regenerated for PR 22, which bulk-loads the
// B+-tree bottom-up: the leaves are packed full instead of left half-empty by
// Insert's splits (31 → 21 tree pages at n = 17,770, m = 6), so every query
// touches 6–7 fewer tree pages; the diff is page_accesses lines only, each
// lower, with results, candidates, radii and terminations untouched. It was
// regenerated once more when the B+-tree was replaced by the in-memory ring
// directory persisted in idist.meta: the tree's nodes had been decoded into
// memory at Open since the bulk loader, and a query only recorded its node
// visits as page accesses. Page Access now counts the pages a query reads —
// projected data and store — and no index-node pages, a stated departure
// from the paper, whose index is a disk-resident tree. Every page_accesses
// line is exactly 14 lower; nothing else moved.
// Regenerate (only when an intentional semantic change occurs) with:
// go test ./internal/core -run TestSearchGolden -update-golden
func TestSearchGolden(t *testing.T) {
	ix, err := Build(context.Background(), goldenData(), t.TempDir(), Options{M: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	got := goldenRun(t, ix)

	path := filepath.Join("testdata", "search_golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	checkGolden(t, got)
}

// TestSearchGoldenLegacyMeta: the golden index saved with a promips.meta as
// older versions wrote it — carrying every point's 1-norm and sign code and
// each Quick-Probe group's member count, none of which a query reads — opens
// and answers the golden queries identically.
func TestSearchGoldenLegacyMeta(t *testing.T) {
	data, dir := goldenData(), t.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{M: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	norm1, codes, count := make([]float64, len(data)), make([]uint32, len(data)), make(map[uint32]int)
	for i, p := range ix.proj.ProjectAll(data) {
		norm1[i], codes[i] = vec.Norm1(data[i]), randproj.Code(p)
		count[codes[i]]++
	}
	err = ix.Save(dir)
	ix.Close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "promips.meta")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyMetaBytes(t, saved, func(m *legacyCoreMeta) {
		m.Norm1, m.Codes = norm1, codes
		for i := range m.Groups {
			m.Groups[i].Count = count[m.Groups[i].Code]
		}
	})
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkGolden(t, goldenRun(t, re))
}

// goldenData is the golden index's data; its first 8 points are the queries.
func goldenData() [][]float32 { return dataset.Netflix().Generate(1500, 11) }

// goldenRun answers the golden queries — the first 8 points — on ix three
// ways: Search, Search under (c, p) = (0.8, 0.7) and SearchIncremental.
func goldenRun(t *testing.T, ix *Index) goldenFile {
	t.Helper()
	var got goldenFile
	for _, q := range goldenData()[:8] {
		res, st, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got.Search = append(got.Search, capture(t, res, st))

		res, st, err = ix.SearchContext(context.Background(), q, 10, SearchParams{C: 0.8, P: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		got.Overrides = append(got.Overrides, capture(t, res, st))

		res, st, err = ix.SearchIncremental(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got.Incremental = append(got.Incremental, capture(t, res, st))
	}
	return got
}

// checkGolden compares got with testdata/search_golden.json.
func checkGolden(t *testing.T, got goldenFile) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "search_golden.json"))
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	check := func(section string, got, want []goldenQuery) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d queries, want %d", section, len(got), len(want))
		}
		for qi := range want {
			g, w := got[qi], want[qi]
			if len(g.Results) != len(w.Results) {
				t.Fatalf("%s query %d: %d results, want %d", section, qi, len(g.Results), len(w.Results))
			}
			for i := range w.Results {
				if g.Results[i] != w.Results[i] {
					t.Errorf("%s query %d result %d: got id=%d ip=%x, want id=%d ip=%x",
						section, qi, i, g.Results[i].ID, g.Results[i].IPBits, w.Results[i].ID, w.Results[i].IPBits)
				}
			}
			if g.Stats != w.Stats {
				t.Errorf("%s query %d stats: got %+v, want %+v", section, qi, g.Stats, w.Stats)
			}
		}
	}
	check("search", got.Search, want.Search)
	check("overrides", got.Overrides, want.Overrides)
	check("incremental", got.Incremental, want.Incremental)
}
