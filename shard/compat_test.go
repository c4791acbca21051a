package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"promips"
)

// builtAnswer is one query of testdata/parent_built.json: the top 5 the
// parent answered, the page accesses it counted, and how many of those were
// visits to B+-tree nodes.
type builtAnswer struct {
	Query []float32 `json:"query"`
	Top   []struct {
		ID     uint32 `json:"id"`
		IPBits uint64 `json:"ip_bits"`
	} `json:"top"`
	PageAccesses int64 `json:"page_accesses"`
	TreePages    int64 `json:"tree_pages"`
}

// loadParentBuilt reads testdata/parent_built.json and copies
// testdata/parent_built into a temporary directory (Open appends to the
// journal, so tests work on a copy).
func loadParentBuilt(t *testing.T) ([]builtAnswer, string) {
	t.Helper()
	raw, err := os.ReadFile("testdata/parent_built.json")
	if err != nil {
		t.Fatal(err)
	}
	var answers []builtAnswer
	if err := json.Unmarshal(raw, &answers); err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("fixture records %d queries, want 3", len(answers))
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_built")); err != nil {
		t.Fatal(err)
	}
	return answers, dir
}

// checkBuiltAnswers asserts ix answers the recorded queries bit-identically,
// with the recorded page accesses less the B+-tree node visits: the ring
// directory is held in memory and costs no page access.
func checkBuiltAnswers(t *testing.T, ix *Index, answers []builtAnswer) {
	t.Helper()
	for qi, a := range answers {
		res, st, err := ix.Search(context.Background(), a.Query, len(a.Top))
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(res) != len(a.Top) {
			t.Fatalf("query %d: %d results, want %d", qi, len(res), len(a.Top))
		}
		for i, want := range a.Top {
			if res[i].ID != want.ID || math.Float64bits(res[i].IP) != want.IPBits {
				t.Errorf("query %d rank %d: got id %d ip %x, parent answered id %d ip %x",
					qi, i, res[i].ID, math.Float64bits(res[i].IP), want.ID, want.IPBits)
			}
		}
		if want := a.PageAccesses - a.TreePages; st.PageAccesses != want {
			t.Errorf("query %d: %d page accesses, want the parent's %d less %d tree pages", qi, st.PageAccesses, a.PageAccesses, a.TreePages)
		}
	}
}

// TestOpenParentBuiltIndex is the compatibility proof for dropping
// Options.MissLatency from both gob metas and for moving the ring directory
// out of the B+-tree. testdata/parent_built is a one-shard directory written
// by the commit before the field was removed: shard.Build + Save over n=64,
// d=8 vectors of rand.New(rand.NewSource(23)) NormFloat64 draws, with
// promips.Options{PageSize: 512, Seed: 23, MissLatency: time.Millisecond} —
// non-zero, so promips.meta and idist.meta carry a value, not only a type
// descriptor, for a field the receiving structs no longer have. Its ring
// directory is in idist.btree. testdata/parent_built.json records what that
// commit answered for the next three vectors of the same stream at k=5, and
// tree_pages how many of each query's page accesses were B+-tree nodes
// (measured at 3681998, the last commit with the tree, by dropping the
// tree's accounting). This tree must open the directory and answer
// bit-identically, with exactly the tree pages fewer page accesses.
func TestOpenParentBuiltIndex(t *testing.T) {
	answers, dir := loadParentBuilt(t)
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("open parent-built directory: %v", err)
	}
	defer ix.Close()
	checkBuiltAnswers(t, ix, answers)
}

// TestLegacyTreeConvertsOnSave: a Save of a directory whose ring directory
// is in idist.btree writes it into idist.meta and removes the tree file;
// the reopened index answers identically and never reads the tree again.
func TestLegacyTreeConvertsOnSave(t *testing.T) {
	answers, dir := loadParentBuilt(t)
	tree := filepath.Join(dir, "shard-000", "idist.btree")
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tree); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("idist.btree survives the Save (stat: %v)", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Save: %v", err)
	}
	checkBuiltAnswers(t, re, answers)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tree, bytes.Repeat([]byte{0x5A}, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen beside a garbage idist.btree: %v", err)
	}
	defer re.Close()
	checkBuiltAnswers(t, re, answers)
}

// parentAnswers is what a parent commit recorded on reopening one of its
// fixture directories: the live count, the journal records replayed, and the
// top 5 of three query vectors.
type parentAnswers struct {
	LiveCount int `json:"live_count"`
	Replayed  int `json:"replayed"`
	Answers   []struct {
		Query []float32 `json:"query"`
		Top   []struct {
			ID     uint32 `json:"id"`
			IPBits uint64 `json:"ip_bits"`
		} `json:"top"`
	} `json:"answers"`
}

// loadParentFixture reads testdata/<name>.json and copies testdata/<name>
// into a temporary directory (Open writes to the journal, so tests work on a
// copy). It returns the recorded answers and the copy's path.
func loadParentFixture(t *testing.T, name string) (parentAnswers, string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var want parentAnswers
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Answers) != 3 {
		t.Fatalf("fixture records %d queries, want 3", len(want.Answers))
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", name))); err != nil {
		t.Fatal(err)
	}
	return want, dir
}

// checkParentAnswers asserts ix holds the recorded live count and answers the
// recorded queries bit-identically.
func checkParentAnswers(t *testing.T, ix *Index, want parentAnswers) {
	t.Helper()
	if got := ix.LiveCount(); got != want.LiveCount {
		t.Errorf("live count %d, parent recovered %d", got, want.LiveCount)
	}
	for qi, a := range want.Answers {
		res, _, err := ix.Search(context.Background(), a.Query, len(a.Top))
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(res) != len(a.Top) {
			t.Fatalf("query %d: %d results, want %d", qi, len(res), len(a.Top))
		}
		for i, w := range a.Top {
			if res[i].ID != w.ID || math.Float64bits(res[i].IP) != w.IPBits {
				t.Errorf("query %d rank %d: got id %d ip %x, parent answered id %d ip %x",
					qi, i, res[i].ID, math.Float64bits(res[i].IP), w.ID, w.IPBits)
			}
		}
	}
}

// TestOpenParentBuiltSegFiles is the compatibility proof for deleting the
// seg-file flusher. testdata/parent_segfiles is a one-shard directory
// written by the last commit that had one (a411128): shard.Build + Save
// over n=64, d=8 vectors of rand.New(rand.NewSource(24)) NormFloat64 draws
// with promips.Options{PageSize: 512, Seed: 24, SegmentEntries: 4}, then ten
// inserts and two deletes (base id 7, inserted id 66) acknowledged and never
// Saved — so beside a meta that predates them lie seg-000000.seg and
// seg-000001.seg (the two frozen windows) and a wal.log holding all twelve
// records. testdata/parent_segfiles.json records what that commit, which
// replays the seg files and then the journal, answered on reopening the
// directory: the live count, and the top 5 of the next three vectors of the
// stream. This tree reads only the meta and the journal; it must answer
// bit-identically and sweep the seg files.
func TestOpenParentBuiltSegFiles(t *testing.T) {
	want, dir := loadParentFixture(t, "parent_segfiles")
	segPattern := filepath.Join(dir, "shard-000", "seg-*.seg")
	if segs, _ := filepath.Glob(segPattern); len(segs) < 2 {
		t.Fatalf("fixture holds %d seg files, want at least 2", len(segs))
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("open seg-bearing parent directory: %v", err)
	}
	defer ix.Close()
	if rec := ix.Recovery(); rec.Replayed != 12 || rec.Skipped != 0 {
		t.Errorf("recovery %+v, want the journal's 12 records replayed and none skipped", rec)
	}
	checkParentAnswers(t, ix, want)
	if segs, _ := filepath.Glob(segPattern); len(segs) != 0 {
		t.Errorf("seg files survive the open: %v", segs)
	}
}

// TestOpenParentBuiltFsyncPolicies is the compatibility proof for retiring
// the two weaker fsync policies: a directory saved under either opens as
// one whose every acknowledgement is fsynced. Both fixtures are one-shard
// directories over n=64, d=8 NormFloat64 draws, PageSize 512, written by
// the last commit that had the policies (f2d87af); the JSON beside each
// records that commit's reopen: live count, records replayed, and the top 5
// of the next three vectors of the stream.
//
//   - parent_fsyncnever (stream and Seed 25, FsyncNever): Save, then six
//     inserts and two deletes (base id 7, inserted id 66) without a Save,
//     then a clean Close, which wrote the eight records to wal.log. They
//     replay like any journal's.
//   - parent_fsyncdisabled: first built with the default policy (stream and
//     Seed 26), which journaled three inserts and a delete of base id 5 and
//     closed without a Save; then rebuilt in place with FsyncDisabled
//     (stream and Seed 27), Saved, given two inserts and closed. That policy
//     never truncated the wal.log it found, so the log still holds the first
//     build's four records, which belong to another index: replaying them
//     would append ids 64–66 and tombstone id 5. Open must discard the log
//     and reopen exactly the saved state.
//
// Either way one insert after the reopen must survive a Close and an Open.
func TestOpenParentBuiltFsyncPolicies(t *testing.T) {
	for _, tc := range []struct{ name string }{
		{"parent_fsyncnever"},
		{"parent_fsyncdisabled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, dir := loadParentFixture(t, tc.name)
			ix, err := Open(dir)
			if err != nil {
				t.Fatalf("open parent directory: %v", err)
			}
			if rec := ix.Recovery(); rec != (promips.RecoveryStats{Replayed: want.Replayed}) {
				t.Errorf("recovery %+v, want %d records replayed and nothing else", rec, want.Replayed)
			}
			checkParentAnswers(t, ix, want)
			if _, err := ix.Insert(want.Answers[0].Query); err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := re.LiveCount(); got != want.LiveCount+1 {
				t.Errorf("live count %d after an acknowledged insert and a reopen, want %d", got, want.LiveCount+1)
			}
			if rec := re.Recovery(); rec.Replayed != want.Replayed+1 {
				t.Errorf("reopen recovery %+v, want %d records replayed", rec, want.Replayed+1)
			}
		})
	}
}
