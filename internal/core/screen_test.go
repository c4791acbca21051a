package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"promips/internal/dataset"
	"promips/internal/leaktest"
)

// liveScreenRows counts the row sets mapped and not yet freed, across every
// index of the test binary.
var liveScreenRows atomic.Int64

func init() { screenRowsHook = func(delta int) { liveScreenRows.Add(int64(delta)) } }

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
// settles most of the verifications of the serving shape on every view,
// under both drivers — the sequential scan that a runaway query ends in
// included.
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
			if screened*2 < verified {
				t.Errorf("%s, %s: the screen settled only %d of %d verifications", v.name, dname, screened, verified)
			}
		}
	}
}

// TestEveryIndexHasScreenRows: every index has its rows, n·d codes and n
// scales, whatever its pool size — on the default pool, which holds this
// store, and on an 8-page pool, which does not — after Build, after Open
// (derived from the store file, equal to Build's), after Compact, and after
// an Open of a directory written by an older version.
func TestEveryIndexHasScreenRows(t *testing.T) {
	const n = 1500
	data := dataset.Netflix().Generate(n, 17)
	hasRows := func(t *testing.T, when string, ix *Index) *screenRows {
		t.Helper()
		r := ix.ref.screen
		if r == nil || len(r.codes) != ix.n*ix.d || len(r.scales) != ix.n {
			t.Fatalf("%s: screen rows %v over %d points", when, r != nil, ix.n)
		}
		return r
	}
	for _, pool := range []int{0, 8} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			dir := t.TempDir()
			ix, err := Build(context.Background(), data, dir, Options{Seed: 3, M: 6, PoolSize: pool})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { ix.Close() }()
			if resident := ix.orig.Pager().Resident(); resident != (pool == 0) {
				t.Fatalf("pool %d: resident %v", pool, resident)
			}
			built := hasRows(t, "Build", ix)
			if err := ix.Save(dir); err != nil {
				t.Fatal(err)
			}
			opened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hasRows(t, "Open", opened), built) {
				t.Fatal("the rows Open derived from the store differ from the rows Build derived from the data")
			}
			opened.Close()

			for id := uint32(0); id < n; id += 7 {
				ix.Delete(id)
			}
			if _, err := ix.Compact(context.Background(), filepath.Join(dir, "gen-1"), nil); err != nil {
				t.Fatal(err)
			}
			hasRows(t, "Compact", ix)
		})
	}

	parent := t.TempDir()
	if err := os.CopyFS(parent, os.DirFS("../../shard/testdata/parent_built/shard-000")); err != nil {
		t.Fatal(err)
	}
	old, err := Open(parent)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	hasRows(t, "Open of an older directory", old)
}

// TestScreenRowsLifetime: the rows live exactly as long as their
// generation's last reader, on a resident and on a cold store. A search
// holding a snapshot answers bit-identically — results and SearchStats,
// with the screen settling verifications — across a Compact that retires
// its generation and across a Close that waits for it; the retired
// generation's rows stay mapped until that snapshot is released and are
// freed when it is; and once the index is closed the count of live row sets
// is back where it started.
func TestScreenRowsLifetime(t *testing.T) {
	const n = 1500
	data := dataset.Netflix().Generate(n, 23)
	queries := data[:16]
	type answer struct {
		res []Result
		st  SearchStats
	}
	answers := func(t *testing.T, sn *snapshot) []answer {
		t.Helper()
		out, screened := make([]answer, len(queries)), 0
		for i, q := range queries {
			res, st, s, err := screenAnswer(sn, (*query).run, q, 10, SearchParams{})
			if err != nil {
				t.Fatal(err)
			}
			out[i], screened = answer{res, st}, screened+s
		}
		if screened == 0 {
			t.Fatal("the screen settled no verification")
		}
		return out
	}
	live := func(t *testing.T, when string, want int64) {
		t.Helper()
		if got := liveScreenRows.Load(); got != want {
			t.Fatalf("%s: %d live row sets, want %d", when, got, want)
		}
	}
	for _, pool := range []int{0, 8} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			start := liveScreenRows.Load()
			dir := t.TempDir()
			ix, err := Build(context.Background(), data, dir, Options{Seed: 3, M: 6, PoolSize: pool})
			if err != nil {
				t.Fatal(err)
			}
			live(t, "after Build", start+1)

			// Across Compact.
			sn, err := ix.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := answers(t, sn)
			retired := sn.screen
			for id := uint32(0); id < n; id += 5 {
				ix.Delete(id)
			}
			if _, err := ix.Compact(context.Background(), filepath.Join(dir, "gen-1"), nil); err != nil {
				t.Fatal(err)
			}
			if ix.ref.screen == retired {
				t.Fatal("Compact kept the retired generation's rows")
			}
			live(t, "after Compact, the retired generation's snapshot held", start+2)
			if !reflect.DeepEqual(answers(t, sn), want) {
				t.Fatal("a snapshot held across Compact answers differently")
			}
			if retired.codes == nil {
				t.Fatal("the retired generation's rows were freed under its snapshot")
			}
			sn.release()
			live(t, "after the retired generation's last snapshot", start+1)
			if retired.codes != nil {
				t.Fatal("the retired generation's rows outlived its last snapshot")
			}

			// Across Close, which waits for the snapshot.
			if sn, err = ix.snapshot(); err != nil {
				t.Fatal(err)
			}
			want = answers(t, sn)
			closed := make(chan error, 1)
			go func() { closed <- ix.Close() }()
			for sn.ref.refs.Load() != 1 { // Close has released the Index's reference
				runtime.Gosched()
			}
			if !reflect.DeepEqual(answers(t, sn), want) {
				t.Fatal("a snapshot held across Close answers differently")
			}
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) under a held snapshot", err)
			default:
			}
			live(t, "while Close waits", start+1)
			sn.release()
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			live(t, "after Close", start)
		})
	}
}

// TestWriteStoreFailureFreesScreenRows fails writeStore at each of its
// failure points after the rows are mapped — a cancellation at its second
// context check, a vector Append refuses, a Finalize short of the declared
// count — and requires the error back, no panic, and the rows and the page
// file it opened released.
func TestWriteStoreFailureFreesScreenRows(t *testing.T) {
	const n, d = 2*buildGrain + 50, 8
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, d)
		for j := range data[i] {
			data[i][j] = float32(i*d + j)
		}
	}
	layout := make([]uint32, n)
	for i := range layout {
		layout[i] = uint32(i)
	}
	short := slices.Clone(data)
	short[buildGrain+7] = short[buildGrain+7][:d-1]
	cases := []struct {
		name   string
		ctx    context.Context
		data   [][]float32
		layout []uint32
		want   string
	}{
		{"cancelled", newCheckedCtx(2), data, layout, context.Canceled.Error()},
		{"append", context.Background(), short, layout, "vector dim 7"},
		{"finalize", context.Background(), data, layout[:n-1], "appended 2097 of 2098"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fds, start := leaktest.OpenFDs(t), liveScreenRows.Load()
			st, rows, err := writeStore(c.ctx, c.data, c.layout, t.TempDir(), Options{PageSize: 4096})
			if err == nil || !strings.Contains(err.Error(), c.want) || st != nil || rows != nil {
				t.Fatalf("writeStore returned store %v, rows %v, err %v; want no store or rows and an error containing %q", st != nil, rows != nil, err, c.want)
			}
			if got := liveScreenRows.Load(); got != start {
				t.Fatalf("%d live row sets after the failure, %d before", got, start)
			}
			if got := leaktest.OpenFDs(t); got != fds {
				t.Fatalf("%d open fds after the failure, %d before", got, fds)
			}
		})
	}
}

// TestColdScreenWithSketch: the screen-on/screen-off differential of
// TestScreenIsInvisible on a cold store that keeps its sketch — the shape of
// a serving shard, whose store is many times its pool — over its own query
// sample, the last few out of sample. Its queries pre-rank, and member and
// out-of-sample queries alike spend the n/12 runaway budget; every answer
// and every SearchStats field must be those of reading each row, and the
// cases must reach both the sequential scan and screened verifications.
func TestColdScreenWithSketch(t *testing.T) {
	const n = 1500
	data := dataset.Netflix().Generate(n+400, 21)
	ix := buildIndex(t, data[:n], Options{Seed: 3, M: 6, PoolSize: 8})
	if ix.orig.Pager().Resident() || ix.sketch == nil {
		t.Fatal("want a cold store with a sketch")
	}
	sn := diffView{ix: ix}.snapshot(t)
	drivers := map[string]func(*query) error{
		"search":      (*query).run,
		"incremental": (*query).runIncremental,
	}
	paramSets := map[string]SearchParams{
		"defaults":  {},
		"c.95 p.9":  {C: 0.95, P: 0.9},
		"filter":    {Filter: func(id uint32) bool { return id%4 != 1 }},
		"noprerank": {NoPrerank: true},
	}
	perSet := 24
	if raceEnabled {
		perSet = 6
	}
	var scans, screened int
	for dname, drive := range drivers {
		for pname, params := range paramSets {
			for qi := 0; qi < perSet; qi++ {
				q := data[(qi*79)%len(data)] // the last few out of sample
				k := []int{1, 10, 25, 150}[qi%4]
				if err := screenDifferential(sn, drive, q, k, params); err != nil {
					t.Fatalf("%s, %s, query %d, k=%d: %v", dname, pname, qi, k, err)
				}
				_, st, s, err := screenAnswer(sn, drive, q, k, params)
				if err != nil {
					t.Fatal(err)
				}
				if st.TerminatedBy == "scan" {
					scans++
				}
				screened += s
			}
		}
	}
	t.Logf("%d queries ended in the scan, %d verifications screened", scans, screened)
	if scans == 0 || screened == 0 {
		t.Errorf("the cases reach %d scans and %d screened verifications; want both", scans, screened)
	}
}
