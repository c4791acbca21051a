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
	"sync"
	"testing"

	"promips/internal/dataset"
	"promips/internal/vec"
)

// Tests of scanMem's exact prune (segment.go): un-compacted entries carry
// PQ codes under the current generation's sketch and are skipped when the
// sketch bound or Cauchy-Schwarz proves they cannot enter the top-k.

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
	if sn.memLUT(all[0], new([]float64)) == nil {
		t.Fatal("prune not armed on an index with a sketch and a backlog")
	}
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

// scanMemBatched is scanMem's loop written out plainly, each survivor scored
// by vec.Dot and every eight offered together before the next entry is
// tested: the oracle of memBatch.
func (sn *snapshot) scanMemBatched(q []float32, lut []float64, top *topK, params *SearchParams) (pruned int) {
	normQSq := vec.Norm2Sq(q)
	b := memBatch{sn: sn, q: q, lut: lut, normQSq: normQSq, normQ: math.Sqrt(normQSq), top: top}
	if lut != nil {
		b.codeLen = sn.sketch.Subspaces()
	}
	var batch []*deltaEntry
	offer := func() {
		for _, e := range batch {
			top.offer(e.id, vec.Dot(e.v, q))
		}
		batch = batch[:0]
	}
	for si := 0; si <= len(sn.segs); si++ {
		entries := sn.delta
		if si < len(sn.segs) {
			entries = sn.segs[si].entries
		}
		for i := range entries {
			e := &entries[i]
			if !sn.live(e.id) || (params != nil && !params.accepts(e.id)) {
				continue
			}
			if b.prunable(e) {
				pruned++
				continue
			}
			if batch = append(batch, e); len(batch) == 8 {
				offer()
			}
		}
	}
	offer()
	return pruned
}

// TestScanMemOffersWhatItScores: scoring the backlog's survivors eight rows
// at a time leaves the prune count and the accumulator exactly those of
// offering each eight before the next entry is tested, for every k from 1
// to 40, with and without a filter.
func TestScanMemOffersWhatItScores(t *testing.T) {
	ix, all := backlogIndex(t, t.TempDir())
	sn, err := ix.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	filter := &SearchParams{Filter: func(id uint32) bool { return id%3 != 1 }}
	for qi, q := range all[len(all)-24:] {
		lut := sn.memLUT(q, new([]float64))
		for k := 1; k <= 40; k++ {
			for _, params := range []*SearchParams{nil, filter} {
				got, want := newTopK(k), newTopK(k)
				pruned, err := sn.scanMem(context.Background(), q, vec.Norm2Sq(q), lut, got, params)
				if err != nil {
					t.Fatal(err)
				}
				wantPruned := sn.scanMemBatched(q, lut, want, params)
				if pruned != wantPruned || !reflect.DeepEqual(got.results, want.results) {
					t.Fatalf("query %d k=%d filtered=%v: pruned %d, results %v; eight at a time: pruned %d, results %v",
						qi, k, params != nil, pruned, got.results, wantPruned, want.results)
				}
			}
		}
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
	_, err = sn.scanMem(ctx, q, vec.Norm2Sq(q), sn.memLUT(q, new([]float64)), newTopK(5), &params)
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

// entryCodesErr verifies the codes-follow-the-generation invariant on a
// captured view: every un-compacted entry's codes and residual are what a
// fresh Encode under the view's own sketch produces.
func entryCodesErr(sn *snapshot) error {
	if sn.sketch == nil {
		return errors.New("view has no sketch")
	}
	var want deltaEntry
	check := func(entries []deltaEntry, where string) error {
		for _, e := range entries {
			want.resid = sn.sketch.Encode(e.v, want.codes[:sn.sketch.Subspaces()])
			if e.codes != want.codes || e.resid != want.resid {
				return fmt.Errorf("%s entry %d: codes %v resid %v, fresh Encode under the view's sketch gives %v %v",
					where, e.id, e.codes, e.resid, want.codes, want.resid)
			}
		}
		return nil
	}
	for i, seg := range sn.segs {
		if err := check(seg.entries, fmt.Sprintf("segment %d", i)); err != nil {
			return err
		}
	}
	return check(sn.delta, "delta")
}

// bruteView is the top-k over the view's live, accepted points computed with
// no help from the index: every stored vector and every un-compacted entry,
// one decode and one Dot each, in the order scanAll offers them (ties at the
// k-th inner product resolve by offer order). accept nil admits every id.
func bruteView(sn *snapshot, q []float32, k int, accept func(uint32) bool) ([]Result, error) {
	top := newTopK(k)
	admits := func(id uint32) bool { return sn.live(id) && (accept == nil || accept(id)) }
	scan := func(entries []deltaEntry) {
		for _, e := range entries {
			if admits(e.id) {
				top.offer(e.id, vec.Dot(e.v, q))
			}
		}
	}
	for _, seg := range sn.segs {
		scan(seg.entries)
	}
	scan(sn.delta)
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
	if err := entryCodesErr(sn); err != nil {
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
// repeated Compacts (run it under -race). A Compact retrains the sketch, so
// no view may ever pair entries encoded against one generation's codebooks
// with another generation's sketch: every captured view must hold the
// invariant, answer identically with the prune on and off, and both its
// Exact and a Search forced into the scan fallback (with a filter) must
// equal a brute force over that same view's live set.
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

// TestInsertPreparedAgainstRetiredSketch pins the re-check the race above
// hits only by luck: an insert whose off-lock prep encoded against a sketch
// that a Compact then retired must be re-encoded under the lock.
func TestInsertPreparedAgainstRetiredSketch(t *testing.T) {
	ix, all := backlogIndex(t, t.TempDir())
	retired := ix.sketch
	e := newDeltaEntry(retired, 0, vec.Clone(all[2300]))
	if _, err := ix.Compact(context.Background(), filepath.Join(t.TempDir(), "gen1"), nil); err != nil {
		t.Fatal(err)
	}
	if ix.sketch == retired {
		t.Fatal("Compact kept the old sketch")
	}
	ix.mu.Lock()
	_, _, err := ix.insertPreparedLocked(e, retired, true)
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
// journal applied by a replica (ApplyWALChunk) — carry codes under the
// sketch that index opened, though nothing about them was persisted.
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
