package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"promips/internal/dataset"
)

// screenAnswer runs one query against sn through the query struct, driven
// by run (Search's Algorithm 3) or runIncremental (Algorithm 1), and returns
// its answer and how many verifications the screen settled.
func screenAnswer(sn *snapshot, drive func(*query) error, q []float32, k int, params SearchParams) ([]Result, SearchStats, int, error) {
	c, p, k, err := sn.beginSearch(q, k, params)
	if err != nil {
		return nil, SearchStats{}, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	s := sn.newQuery(context.Background(), sc, q, k, c, p, params)
	res, st, err := s.finish(drive(s))
	return res, st, s.screened, err
}

// screenDifferential answers q on sn with the screen and on its twin without
// it, and requires the same results and the same stats, every field.
func screenDifferential(sn *snapshot, drive func(*query) error, q []float32, k int, params SearchParams) error {
	ref := *sn
	ref.noScreen = true
	got, gotSt, screened, err := screenAnswer(sn, drive, q, k, params)
	if err != nil {
		return err
	}
	want, wantSt, refScreened, err := screenAnswer(&ref, drive, q, k, params)
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
// store, through Search's driver and through Algorithm 1's; and the screen
// settles most of the verifications of the serving shape — under Search on
// the views with a sketch (without one most of these queries end in the
// sequential scan, where the screen does not run), under Algorithm 1, which
// has no such scan, on every view.
func TestScreenIsInvisible(t *testing.T) {
	views, paramSets := differentialViews(t)
	drivers := map[string]func(*query) error{
		"search":      (*query).run,
		"incremental": (*query).runIncremental,
	}
	// Under the race detector the differential is there for the derivation
	// on the worker pool; a quarter of the queries cover it.
	perSet, member := 24, 50
	if raceEnabled {
		perSet, member = 6, 12
	}
	for _, v := range views {
		sn := v.snapshot(t)
		if sn.screen == nil {
			t.Fatalf("%s: a resident index has no screen rows", v.name)
		}
		for dname, drive := range drivers {
			for pname, params := range paramSets {
				for qi := 0; qi < perSet; qi++ {
					q := v.queries[(qi*67)%len(v.queries)]
					k := []int{1, 10, 25, 150}[qi%4]
					if err := screenDifferential(sn, drive, q, k, params); err != nil {
						t.Fatalf("%s, %s, %s, query %d, k=%d: %v", v.name, dname, pname, qi, k, err)
					}
				}
			}
		}
		// Member queries at k=10 and the defaults: the serving shape.
		for dname, drive := range drivers {
			var screened, verified int
			for _, q := range v.queries[:member] {
				_, st, s, err := screenAnswer(sn, drive, q, 10, SearchParams{})
				if err != nil {
					t.Fatal(err)
				}
				screened += s
				verified += st.Candidates
			}
			t.Logf("%-16s %-11s k=10 member queries: %d of %d verifications screened", v.name, dname, screened, verified)
			if (sn.sketch != nil || dname == "incremental") && screened*2 < verified {
				t.Errorf("%s, %s: the screen settled only %d of %d verifications", v.name, dname, screened, verified)
			}
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
