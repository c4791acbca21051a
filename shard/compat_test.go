package shard

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenParentBuiltIndex is the compatibility proof for dropping
// Options.MissLatency from both gob metas. testdata/parent_built is a
// one-shard directory written by the commit before the field was removed:
// shard.Build + Save over n=64, d=8 vectors of rand.New(rand.NewSource(23))
// NormFloat64 draws, with promips.Options{PageSize: 512, Seed: 23,
// MissLatency: time.Millisecond} — non-zero, so promips.meta and idist.meta
// carry a value, not only a type descriptor, for a field the receiving
// structs no longer have. testdata/parent_built.json records what that
// commit answered for the next three vectors of the same stream at k=5.
// This tree must open the directory and answer bit-identically, page
// accesses included.
func TestOpenParentBuiltIndex(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_built.json")
	if err != nil {
		t.Fatal(err)
	}
	var answers []struct {
		Query []float32 `json:"query"`
		Top   []struct {
			ID     uint32 `json:"id"`
			IPBits uint64 `json:"ip_bits"`
		} `json:"top"`
		PageAccesses int64 `json:"page_accesses"`
	}
	if err := json.Unmarshal(raw, &answers); err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("fixture records %d queries, want 3", len(answers))
	}
	// Open appends to the journal, so work on a copy.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_built")); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("open parent-built directory: %v", err)
	}
	defer ix.Close()
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
		if st.PageAccesses != a.PageAccesses {
			t.Errorf("query %d: %d page accesses, parent counted %d", qi, st.PageAccesses, a.PageAccesses)
		}
	}
}

// TestOpenParentBuiltSegFiles is the compatibility proof for deleting the
// seg-file flusher. testdata/parent_segfiles is a one-shard directory
// written by the last commit that had one (a411128): shard.Build + Save
// over n=64, d=8 vectors of rand.New(rand.NewSource(24)) NormFloat64 draws
// with promips.Options{PageSize: 512, Seed: 24, SegmentEntries: 4}, then ten
// inserts and two deletes (base id 7, inserted id 66) acknowledged under
// FsyncAlways and never Saved — so beside a meta that predates them lie
// seg-000000.seg and seg-000001.seg (the two frozen windows) and a wal.log
// holding all twelve records. testdata/parent_segfiles.json records what
// that commit, which replays the seg files and then the journal, answered on
// reopening the directory: the live count, and the top 5 of the next three
// vectors of the stream. This tree reads only the meta and the journal; it
// must answer bit-identically and sweep the seg files.
func TestOpenParentBuiltSegFiles(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_segfiles.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		LiveCount int `json:"live_count"`
		Answers   []struct {
			Query []float32 `json:"query"`
			Top   []struct {
				ID     uint32 `json:"id"`
				IPBits uint64 `json:"ip_bits"`
			} `json:"top"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Answers) != 3 {
		t.Fatalf("fixture records %d queries, want 3", len(want.Answers))
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_segfiles")); err != nil {
		t.Fatal(err)
	}
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
	if segs, _ := filepath.Glob(segPattern); len(segs) != 0 {
		t.Errorf("seg files survive the open: %v", segs)
	}
}
