package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"promips/internal/dataset"
)

// screenAnswer runs one query against sn through the query struct and
// returns its answer and how many verifications the screen settled.
func screenAnswer(sn *snapshot, q []float32, k int, params SearchParams) ([]Result, SearchStats, int, error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return nil, SearchStats{}, 0, err
	}
	sc := getScratch(sn)
	defer putScratch(sc)
	s := sn.newQuery(context.Background(), sc, q, k, c, p, params)
	res, st, err := s.finish(s.run())
	return res, st, s.screened, err
}

// screenDifferential answers q on sn with the screen and on its twin without
// it, and requires the same results and the same stats, every field.
func screenDifferential(sn *snapshot, q []float32, k int, params SearchParams) error {
	ref := *sn
	ref.noScreen = true
	got, gotSt, screened, err := screenAnswer(sn, q, k, params)
	if err != nil {
		return err
	}
	want, wantSt, refScreened, err := screenAnswer(&ref, q, k, params)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if refScreened != 0 {
		return fmt.Errorf("the screen settled %d verifications with the screen off", refScreened)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("results differ with the screen on:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		return fmt.Errorf("stats differ with the screen on:\n got %+v\nwant %+v", gotSt, wantSt)
	}
	if screened > gotSt.Candidates {
		return fmt.Errorf("%d screened of %d verifications", screened, gotSt.Candidates)
	}
	return nil
}

// TestScreenIsInvisible: on the views and query parameters of the
// ordered-pass differential — tombstones, filters, per-query (c, p),
// NoPrerank, an update backlog, tied projected distances, an index without
// a sketch — a query answers with the same results and the same
// SearchStats, PageAccesses and the runaway budget's verdict included,
// whether the int8 screen settles verifications or every one reads the
// store; and on the views with a sketch the screen settles most of the
// verifications of the serving shape. (Without one most of these queries
// end in the sequential scan, where the screen does not run.)
func TestScreenIsInvisible(t *testing.T) {
	const n = 1500
	netflix := dataset.Netflix().Generate(n+400, 21)
	tied := slices.Clone(netflix[:n])
	for i := 0; i < n; i += 5 {
		tied[i] = tied[(i+1)%n]
	}
	gauss := randData(rand.New(rand.NewSource(5)), 900, 24)

	plain := buildIndex(t, netflix[:n], Options{Seed: 3, M: 6})
	backlog, backlogData := backlogIndex(t, t.TempDir())
	deleted := buildIndex(t, netflix[:n], Options{Seed: 9, M: 6})
	for id := uint32(0); id < n; id += 3 {
		deleted.Delete(id)
	}
	views := []struct {
		name    string
		ix      *Index
		queries [][]float32
		mutate  func(*snapshot)
	}{
		{"netflix", plain, netflix, nil},
		{"pre-sketch index", plain, netflix, func(sn *snapshot) { sn.sketch = nil }},
		{"tombstones", deleted, netflix, nil},
		{"backlog", backlog, backlogData, nil},
		{"ties", buildIndex(t, tied, Options{Seed: 4, M: 6}), tied, nil},
		{"gaussian", buildIndex(t, gauss, Options{Seed: 6, M: 5}), gauss, nil},
	}
	paramSets := map[string]SearchParams{
		"defaults":  {},
		"c.8 p.7":   {C: 0.8, P: 0.7},
		"c.95 p.9":  {C: 0.95, P: 0.9},
		"filter":    {Filter: func(id uint32) bool { return id%4 != 1 }},
		"noprerank": {NoPrerank: true},
	}
	// Under the race detector the differential is there for the derivation
	// on the worker pool; a quarter of the queries cover it.
	perSet, member := 24, 50
	if raceEnabled {
		perSet, member = 6, 12
	}
	for _, v := range views {
		sn, err := v.ix.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer sn.release() // before the index's Close, which waits for it
		if sn.screen == nil {
			t.Fatalf("%s: a resident index has no screen rows", v.name)
		}
		if v.mutate != nil {
			v.mutate(sn)
		}
		for pname, params := range paramSets {
			for qi := 0; qi < perSet; qi++ {
				q := v.queries[(qi*67)%len(v.queries)]
				k := []int{1, 10, 25, 150}[qi%4]
				if err := screenDifferential(sn, q, k, params); err != nil {
					t.Fatalf("%s, %s, query %d, k=%d: %v", v.name, pname, qi, k, err)
				}
			}
		}
		// Member queries at k=10 and the defaults: the serving shape.
		var screened, verified int
		for _, q := range v.queries[:member] {
			_, st, s, err := screenAnswer(sn, q, 10, SearchParams{})
			if err != nil {
				t.Fatal(err)
			}
			screened += s
			verified += st.Candidates
		}
		t.Logf("%-16s k=10 member queries: %d of %d verifications screened", v.name, screened, verified)
		if sn.sketch != nil && screened*2 < verified {
			t.Errorf("%s: the screen settled only %d of %d verifications", v.name, screened, verified)
		}
	}
}

// TestScreenRowsFollowResidency: the rows exist exactly when the store's
// pool holds the store — after Build, after Open (derived from the store
// file, equal to Build's), after Compact, and after an Open of a directory
// written by an older version — and are nil on an 8-page pool, at Build and
// at Open.
func TestScreenRowsFollowResidency(t *testing.T) {
	const n = 1500
	data := dataset.Netflix().Generate(n, 17)
	dir := t.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 3, M: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()
	if ix.screen == nil || len(ix.screen.codes) != n*ix.d || len(ix.screen.scales) != n {
		t.Fatalf("Build on a resident store: screen %v", ix.screen != nil)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.screen == nil {
		t.Fatal("Open of a resident store has no screen rows")
	}
	if !reflect.DeepEqual(opened.screen, ix.screen) {
		t.Fatal("the rows Open derived from the store differ from the rows Build derived from the data")
	}
	opened.Close()

	for id := uint32(0); id < n; id += 7 {
		ix.Delete(id)
	}
	if _, err := ix.Compact(context.Background(), filepath.Join(dir, "gen-1"), nil); err != nil {
		t.Fatal(err)
	}
	if ix.screen == nil || len(ix.screen.scales) != ix.n {
		t.Fatalf("Compact: screen %v over %d points", ix.screen != nil, ix.n)
	}

	parent := t.TempDir()
	if err := os.CopyFS(parent, os.DirFS("../../shard/testdata/parent_built/shard-000")); err != nil {
		t.Fatal(err)
	}
	old, err := Open(parent)
	if err != nil {
		t.Fatal(err)
	}
	if old.screen == nil || len(old.screen.scales) != old.n {
		t.Fatalf("Open of an older directory: screen %v over %d points", old.screen != nil, old.n)
	}
	old.Close()

	coldDir := t.TempDir()
	cold, err := Build(context.Background(), data, coldDir, Options{Seed: 3, M: 6, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cold.orig.Pager().Resident() || cold.screen != nil {
		t.Fatalf("8-page pool: resident %v, screen %v", cold.orig.Pager().Resident(), cold.screen != nil)
	}
	if err := cold.Save(coldDir); err != nil {
		t.Fatal(err)
	}
	cold.Close()
	if cold, err = Open(coldDir); err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.screen != nil {
		t.Fatal("Open on an 8-page pool derived screen rows")
	}
}
