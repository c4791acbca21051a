package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"promips/internal/dataset"
	"promips/internal/vec"
)

// Tests of scanMem's screened scan (segment.go, screen.go): un-compacted
// entries carry int8 rows, and an entry is scored only when its int8 bound
// can beat both the scan's threshold and the running k-th.

// backlogIndex builds a Netflix-like index whose update state has every
// shape scanMem walks: two frozen segments, a partly filled delta, and
// tombstones in the base index, a segment and the delta.
func backlogIndex(t testing.TB, dir string) (*Index, [][]float32) {
	t.Helper()
	const n, inserts = 1500, 700
	all := dataset.Netflix().Generate(n+inserts+200, 13)
	ix, err := Build(context.Background(), all[:n], dir, Options{Seed: 7, M: 6, SegmentEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	for _, v := range all[n : n+inserts] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{3, 700, n + 10, n + 300, n + inserts - 1} {
		if !ix.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	if st := ix.UpdateStats(); st.Segments != 2 || st.DeltaEntries != inserts-512 {
		t.Fatalf("update state = %+v, want 2 segments and %d delta entries", st, inserts-512)
	}
	return ix, all
}

// withoutMemPrune returns sn's reference twin: the same view with the
// in-memory prune off. It shares sn's generation reference — release sn only.
func withoutMemPrune(sn *snapshot) *snapshot {
	ref := *sn
	ref.noMemPrune = true
	return &ref
}

// memPruneDifferential runs the three query paths against sn with the
// prune on and off and requires identical answers and identical disk work.
// It returns how many more points the pruned side skipped.
func memPruneDifferential(sn *snapshot, q []float32, k int, params SearchParams) (extraPruned int, err error) {
	ctx := context.Background()
	ref := withoutMemPrune(sn)
	type run func(*snapshot) ([]Result, SearchStats, error)
	paths := map[string]run{
		"Search":            func(s *snapshot) ([]Result, SearchStats, error) { return s.search(ctx, q, k, params) },
		"SearchIncremental": func(s *snapshot) ([]Result, SearchStats, error) { return s.searchIncremental(ctx, q, k, params) },
		"Exact": func(s *snapshot) ([]Result, SearchStats, error) {
			res, err := s.exact(ctx, q, k)
			return res, SearchStats{}, err
		},
	}
	for name, path := range paths {
		got, gotSt, err := path(sn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		want, wantSt, err := path(ref)
		if err != nil {
			return 0, fmt.Errorf("%s (reference): %w", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			return 0, fmt.Errorf("%s: results differ with the prune on:\n got %v\nwant %v", name, got, want)
		}
		extraPruned += gotSt.NormPruned - wantSt.NormPruned
		gotSt.NormPruned, wantSt.NormPruned = 0, 0
		if !reflect.DeepEqual(gotSt, wantSt) {
			return 0, fmt.Errorf("%s: stats differ beyond NormPruned:\n got %+v\nwant %+v", name, gotSt, wantSt)
		}
	}
	return extraPruned, nil
}

// TestMemPruneIsExact: on every query path, with and without a filter, the
// pruned scan returns byte-identical results and does identical disk work
// (Candidates, PageAccesses, termination) to scanning every entry — and it
// does skip entries.
func TestMemPruneIsExact(t *testing.T) {
	ix, all := backlogIndex(t, t.TempDir())
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	filters := map[string]func(uint32) bool{
		"unfiltered": nil,
		"filtered":   func(id uint32) bool { return id%3 != 0 },
	}
	for name, filter := range filters {
		pruned := 0
		for qi := 0; qi < 40; qi++ {
			q := all[(qi*53)%len(all)] // base members, inserted members and out-of-index vectors
			extra, err := memPruneDifferential(sn, q, 1+qi%10, SearchParams{Filter: filter})
			if err != nil {
				t.Fatalf("%s query %d: %v", name, qi, err)
			}
			pruned += extra
		}
		if pruned <= 0 {
			t.Fatalf("%s: the prune skipped nothing (extra NormPruned = %d)", name, pruned)
		}
	}
}

// offerBacklog offers every live entry of the view's backlog that accept
// admits (nil admits every id) to top, each entry's vec.Dot, in the order
// scanMem walks them: the segments, oldest first, then the delta.
func offerBacklog(sn *snapshot, q []float32, top *topK, accept func(uint32) bool) {
	scan := func(entries []deltaEntry) {
		for _, e := range entries {
			if sn.live(e.id) && (accept == nil || accept(e.id)) {
				top.offer(e.id, vec.Dot(e.v, q))
			}
		}
	}
	for _, seg := range sn.segs {
		scan(seg.entries)
	}
	scan(sn.delta)
}

// sameResults reports whether got and want hold the same ids in the same
// order with bit-identical inner products.
func sameResults(got, want []Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].IP) != math.Float64bits(want[i].IP) {
			return false
		}
	}
	return true
}

// TestScanMemOffersWhatItScores: the screened backlog scan leaves the
// accumulator exactly as offering every live, admitted entry's vec.Dot in
// scan order does — the same ids, the same inner products bit for bit,
// ties in the same order — for every k from 1 to 40 and 150, with and
// without a filter. The backlog holds duplicate vectors in a segment and in
// the delta, whose inner products tie bit for bit, and, in its first
// segment, a zero row ahead of a row orthogonal to e₀. Both score 0 against
// e₀; the zero row's bound is 0 too and the orthogonal row's is above it.
// Every other row's first component is ±(3 + |x|), so for e₀ and k one past
// the positive rows the k rows with the largest bounds are the positive
// ones and the orthogonal row, the threshold is 0, and a scan that skipped
// a row whose bound equals the threshold would return the orthogonal row in
// the zero row's place.
func TestScanMemOffersWhatItScores(t *testing.T) {
	const d, segEntries = 24, 128
	r := rand.New(rand.NewSource(29))
	ix := buildIndex(t, randData(r, 300, d), Options{Seed: 4, M: 5, SegmentEntries: segEntries})
	zero, orth := make([]float32, d), randData(r, 1, d)[0]
	orth[0] = 0
	rows := randData(r, 300, d)
	for i, v := range rows {
		v[0] = float32(3 + math.Abs(r.NormFloat64()))
		if i%11 != 0 {
			v[0] = -v[0]
		}
	}
	backlog := append([][]float32{zero, orth}, rows...)
	// Copies of first-segment and second-segment rows, positive ones among
	// them, land in the delta.
	backlog = append(backlog, rows[:22]...)
	backlog = append(backlog, rows[150:172]...)
	for _, v := range backlog {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []uint32{5, 140, 310, 330} { // places in the backlog
		if !ix.Delete(300 + g) {
			t.Fatalf("delete %d failed", 300+g)
		}
	}
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	if len(sn.segs) != 2 || len(sn.delta) != len(backlog)-2*segEntries {
		t.Fatalf("backlog of %d segments and %d delta entries, want 2 and %d", len(sn.segs), len(sn.delta), len(backlog)-2*segEntries)
	}
	e0 := make([]float32, d)
	e0[0] = 1
	queries := [][]float32{e0, rows[0], rows[11], rows[154], randData(r, 1, d)[0]}
	filter := func(id uint32) bool { return id%3 != 1 }
	ks := []int{150}
	for k := 1; k <= 40; k++ {
		ks = append(ks, k)
	}
	skipped := 0
	for qi, q := range queries {
		for _, k := range ks {
			for _, accept := range []func(uint32) bool{nil, filter} {
				sc := getScratch()
				s := sn.newQuery(context.Background(), sc, q, k, 0, 0, SearchParams{Filter: accept})
				pruned, err := s.scanMem()
				if err != nil {
					t.Fatal(err)
				}
				want := newTopK(k)
				offerBacklog(sn, q, want, accept)
				if !sameResults(sc.top.results, want.results) {
					t.Fatalf("query %d k=%d filtered=%v: scanMem left %v, offering every entry leaves %v",
						qi, k, accept != nil, sc.top.results, want.results)
				}
				skipped += pruned
				putScratch(sc)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the screened scan scored every entry")
	}
}

// TestScanMemCancellation: the backlog scan is a cancellation point. The
// context is cancelled from inside the scan (by the filter, at a known
// entry); the scan must stop within its 256-entry check interval instead of
// running the backlog out.
func TestScanMemCancellation(t *testing.T) {
	ix, all := backlogIndex(t, t.TempDir())
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visited := 0
	params := SearchParams{Filter: func(uint32) bool {
		if visited++; visited == 100 {
			cancel()
		}
		return true
	}}
	q := all[0]
	_, err = sn.newQuery(ctx, getScratch(), q, 5, 0, 0, params).scanMem()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scanMem under a cancelled context returned %v, want context.Canceled", err)
	}
	if visited > 100+256 {
		t.Fatalf("scan visited %d entries after a cancel at entry 100", visited)
	}
	// And through the public path: a Search whose context dies in the
	// backlog scan reports it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, _, err = ix.SearchContext(ctx2, q, 5, SearchParams{Filter: func(uint32) bool { cancel2(); return true }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Search cancelled mid-backlog returned %v, want context.Canceled", err)
	}
}

// entryRowsErr verifies that every un-compacted entry of a captured view
// has its own int8 row: the row at its place in its segment's or the
// delta's rows, and the scale and residual bound the entry keeps, are what
// quantizing its vector gives.
func entryRowsErr(sn *snapshot) error {
	stride := sn.screen.stride
	want := make([]int8, stride)
	check := func(entries []deltaEntry, rows []int8, where string) error {
		if len(rows) != len(entries)*stride {
			return fmt.Errorf("%s: %d entries hold %d row codes, want %d", where, len(entries), len(rows), len(entries)*stride)
		}
		for i, e := range entries {
			scale, resid := vec.QuantizeInt8(want, e.v)
			if row := rows[i*stride : (i+1)*stride]; !slices.Equal(row, want) || e.scale != scale || e.resid != resid {
				return fmt.Errorf("%s entry %d: row %v scale %v resid %v, quantizing its vector gives %v %v %v",
					where, e.id, row, e.scale, e.resid, want, scale, resid)
			}
		}
		return nil
	}
	for i, seg := range sn.segs {
		if err := check(seg.entries, seg.rows, fmt.Sprintf("segment %d", i)); err != nil {
			return err
		}
	}
	return check(sn.delta, sn.deltaRows, "delta")
}

// bruteView is the top-k over the view's live, accepted points computed with
// no help from the index: every stored vector and every un-compacted entry,
// one decode and one Dot each, in the order scanAll offers them (ties at the
// k-th inner product resolve by offer order). accept nil admits every id.
func bruteView(sn *snapshot, q []float32, k int, accept func(uint32) bool) ([]Result, error) {
	top := newTopK(k)
	admits := func(id uint32) bool { return sn.live(id) && (accept == nil || accept(id)) }
	offerBacklog(sn, q, top, accept)
	buf := make([]float32, sn.d)
	for pos, id := range sn.idist.Layout() {
		if !admits(id) {
			continue
		}
		v, err := sn.orig.VectorAt(pos, buf, nil)
		if err != nil {
			return nil, err
		}
		top.offer(id, vec.Dot(v, q))
	}
	return top.results, nil
}

// exactVsBrute compares sn.exact with bruteView over the same view.
func exactVsBrute(sn *snapshot, q []float32, k int) error {
	want, err := bruteView(sn, q, k, nil)
	if err != nil {
		return err
	}
	got, err := sn.exact(context.Background(), q, k)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("exact differs from brute force over the same view:\n got %v\nwant %v", got, want)
	}
	return nil
}

// forcedScanVsBrute asks the view for more results than a query may randomly
// verify before the runaway rule stops it — k exceeds the un-compacted
// entries plus the verification budget, so the top-k cannot fill, and no
// condition can fire, before the budget is spent — and requires the answer
// of the sequential scan it must end in to be the exact filtered top-k.
func forcedScanVsBrute(sn *snapshot, q []float32) error {
	accept := func(id uint32) bool { return id%5 != 2 }
	k := sn.runawayBudget() + sn.frozenLen + len(sn.delta) + 1
	got, st, err := sn.search(context.Background(), q, k, SearchParams{Filter: accept})
	if err != nil {
		return err
	}
	if st.TerminatedBy != "scan" {
		return fmt.Errorf("k=%d over n=%d disk points terminated by %q after %d verifications, want the scan", k, sn.n, st.TerminatedBy, st.Candidates)
	}
	want, err := bruteView(sn, q, min(k, sn.liveCount()), accept)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("scan fallback differs from brute force over the same view:\n got %v\nwant %v", got, want)
	}
	return nil
}

// checkView runs every per-view check of this file.
func checkView(sn *snapshot, q []float32) error {
	if err := entryRowsErr(sn); err != nil {
		return err
	}
	if _, err := memPruneDifferential(sn, q, 10, SearchParams{}); err != nil {
		return err
	}
	if err := forcedScanVsBrute(sn, q); err != nil {
		return err
	}
	return exactVsBrute(sn, q, 10)
}

// TestEntryCodesFollowGeneration races updaters and searchers against
// repeated Compacts (run it under -race). Every captured view must give
// each un-compacted entry its own int8 codes — its row, across freezes and
// the generation swaps that rebuild the backlog — answer identically with
// the screen on and off, and both its Exact and a Search forced into the
// scan fallback (with a filter) must equal a brute force over that same
// view's live set.
func TestEntryCodesFollowGeneration(t *testing.T) {
	const n, d = 600, 24
	r := rand.New(rand.NewSource(17))
	all := randData(r, n+4000, d)
	base := t.TempDir()
	// An 8-page pool under a 15-page vector file: the forced scans read
	// around the pool, as they do on an index larger than its cache.
	ix, err := Build(context.Background(), all[:n], base, Options{Seed: 3, M: 5, SegmentEntries: 64, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Each worker alternates one insert with one checked view, which also
	// paces the inserts: the backlog a Compact folds stays in the hundreds.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ix.Insert(all[n+i%4000]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%7 == 0 { // tombstones, in whatever generation holds the id now
					ix.Delete(uint32(i * 13 % n))
				}
				sn, err := ix.snapshot()
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				err = checkView(sn, all[(i*37)%len(all)])
				sn.release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for gen := 1; gen <= 5; gen++ {
		// Persist each generation before the swap, as the root package does:
		// that handover is what seals the retired journal, so an updater
		// still waiting on its group fsync is acknowledged, not failed.
		dir := filepath.Join(base, fmt.Sprintf("gen%d", gen))
		persist := func(next *Index) (bool, error) {
			err := next.Save(dir)
			return err == nil, err
		}
		if _, err := ix.Compact(context.Background(), dir, persist); err != nil {
			t.Errorf("compact %d: %v", gen, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestInsertPreparedAgainstRetiredSketch pins what the race above hits only
// by luck: an insert whose off-lock prep ran before a Compact retired the
// generation (and its sketch) is sequenced into the next one as it was
// prepared — its int8 row depends on its vector alone.
func TestInsertPreparedAgainstRetiredSketch(t *testing.T) {
	ix, all := backlogIndex(t, t.TempDir())
	retired := ix.sketch
	e, row := newDeltaEntry(0, vec.Clone(all[2300]))
	if _, err := ix.Compact(context.Background(), filepath.Join(t.TempDir(), "gen1"), nil); err != nil {
		t.Fatal(err)
	}
	if ix.sketch == retired {
		t.Fatal("Compact kept the old sketch")
	}
	ix.mu.Lock()
	_, _, err := ix.insertPreparedLocked(e, row, true)
	ix.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	if len(sn.delta) != 1 {
		t.Fatalf("delta holds %d entries after one post-compact insert", len(sn.delta))
	}
	if err := checkView(sn, all[2300]); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredEntryCodes: entries rebuilt from persisted state — the
// meta's delta list and the journal at Open, and a shipped
// journal applied by a replica (ApplyWALChunk) — carry their int8 codes,
// though nothing about them was persisted.
func TestRecoveredEntryCodes(t *testing.T) {
	primaryDir := t.TempDir()
	ix, all := backlogIndex(t, primaryDir)
	if err := ix.Save(primaryDir); err != nil { // 700 entries into the meta's delta list
		t.Fatal(err)
	}
	// The replica starts from a copy of the saved generation…
	replicaDir := filepath.Join(t.TempDir(), "replica")
	if err := os.CopyFS(replicaDir, os.DirFS(primaryDir)); err != nil {
		t.Fatal(err)
	}
	replica, err := Open(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	// …and the primary moves on: a freeze's worth of journaled inserts.
	for _, v := range all[2200:2400] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	walBytes, err := os.ReadFile(filepath.Join(primaryDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if applied, _, _, _, err := replica.ApplyWALChunk(walBytes, false); err != nil || applied != 200 {
		t.Fatalf("replica apply: applied=%d err=%v, want 200", applied, err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(primaryDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec := reopened.Recovery(); rec.Replayed != 200 {
		t.Fatalf("reopen replayed %d journal records, want 200", rec.Replayed)
	}
	for name, ix := range map[string]*Index{"reopened": reopened, "replica": replica} {
		sn, err := ix.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := sn.frozenLen + len(sn.delta); got != 900 {
			t.Fatalf("%s holds %d un-compacted entries, want 900", name, got)
		}
		err = checkView(sn, all[5])
		sn.release()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
