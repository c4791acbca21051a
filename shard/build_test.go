package shard

import (
	"context"
	"crypto/sha256"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"promips"
	"promips/dataset"
	"promips/internal/fsutil"
	"promips/internal/leaktest"
)

// hashTree returns the SHA-256 of every file under root, by relative path.
func hashTree(t *testing.T, root string) map[string][sha256.Size]byte {
	t.Helper()
	sums := make(map[string][sha256.Size]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sums[rel] = sha256.Sum256(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestBuildDeterministicAcrossGOMAXPROCS is the contract of the parallel
// build: the worker count decides who does the work, never what is written.
// The same points and seed, built at 1, 2 and 8 workers, must save
// byte-equal directories — manifest, generation pointers, metadata (sketch,
// norms and groups inside), iDistance pages, vector store — and answer with
// equal results and equal per-query stats.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	data := dataset.Netflix().Generate(6000, 21)
	queries := append(data[:6:6], dataset.Netflix().Queries(2, 22)...)
	type answer struct {
		Results []promips.Result
		Stats   promips.SearchStats
	}
	build := func(procs int) (map[string][sha256.Size]byte, []answer) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		ix, err := Build(data, Options{Shards: 2, Dir: dir, Index: promips.Options{Seed: 23, M: 6}})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		defer ix.Close()
		if err := ix.Save(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: save: %v", procs, err)
		}
		answers := make([]answer, len(queries))
		for i, q := range queries {
			res, st, err := ix.Search(context.Background(), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = answer{res, st}
		}
		return hashTree(t, dir), answers
	}
	wantSums, wantAnswers := build(1)
	for _, name := range []string{"SHARDS", "shard-000/CURRENT", "shard-000/promips.meta", "shard-000/idist.data",
		"shard-000/idist.meta", "shard-000/orig.data", "shard-001/promips.meta", "shard-001/orig.data"} {
		if _, ok := wantSums[filepath.FromSlash(name)]; !ok {
			t.Fatalf("saved directory has no %s (files: %d)", name, len(wantSums))
		}
	}
	for _, procs := range []int{2, 8} {
		sums, answers := build(procs)
		if len(sums) != len(wantSums) {
			t.Errorf("GOMAXPROCS=%d wrote %d files, GOMAXPROCS=1 wrote %d", procs, len(sums), len(wantSums))
		}
		for name, want := range wantSums {
			if sums[name] != want {
				t.Errorf("GOMAXPROCS=%d: %s differs from the GOMAXPROCS=1 build", procs, name)
			}
		}
		if !reflect.DeepEqual(answers, wantAnswers) {
			t.Errorf("GOMAXPROCS=%d: search results or stats differ from the GOMAXPROCS=1 build", procs)
		}
	}
}

// TestBuildReportsLowestFailedShard: shards 1 and 2 of 3 cannot create their
// vector store (orig.data is taken by a directory) while shard 0 builds.
// Build reports shard 1, the lowest, closes shard 0 — no page file or
// goroutine survives — and leaves the caller's root alone.
func TestBuildReportsLowestFailedShard(t *testing.T) {
	data := dataset.Netflix().Generate(1500, 31)
	dir := t.TempDir()
	for _, s := range []int{1, 2} {
		if err := os.MkdirAll(filepath.Join(dir, shardDirName(s), "orig.data"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fds, goroutines := leaktest.OpenFDs(t), runtime.NumGoroutine()
	ix, err := Build(data, Options{Shards: 3, Dir: dir, Index: promips.Options{Seed: 32, M: 6}})
	if err == nil {
		ix.Close()
		t.Fatal("Build succeeded with two unbuildable shards")
	}
	if !strings.Contains(err.Error(), "build shard 1:") {
		t.Fatalf("Build reported %q, want shard 1's failure", err)
	}
	leaktest.SettleGoroutines(t, goroutines)
	if got := leaktest.OpenFDs(t); got != fds {
		t.Fatalf("%d open fds after the failed build, %d before", got, fds)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("the caller's root was removed: %v", err)
	}
}

// TestBuildFailureRemovesOwnedRoot: the filesystem dies at the first journal
// write, so every shard fails after its page files exist. Build reports
// shard 0, closes them all and removes the temporary root it created.
func TestBuildFailureRemovesOwnedRoot(t *testing.T) {
	data := dataset.Netflix().Generate(1500, 33)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	fds, goroutines := leaktest.OpenFDs(t), runtime.NumGoroutine()
	ffs := &fsutil.FaultFS{FailAt: 1, Crash: true}
	ix, err := Build(data, Options{Shards: 3, Index: promips.Options{Seed: 34, M: 6}}.WithFS(ffs))
	if err == nil {
		ix.Close()
		t.Fatal("Build succeeded on a crashed filesystem")
	}
	if !errors.Is(err, fsutil.ErrInjected) || !strings.Contains(err.Error(), "build shard 0:") {
		t.Fatalf("Build reported %q, want shard 0's injected fault", err)
	}
	leaktest.SettleGoroutines(t, goroutines)
	if got := leaktest.OpenFDs(t); got != fds {
		t.Fatalf("%d open fds after the failed build, %d before", got, fds)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("the owned temporary root survived the failed build: %v", left)
	}
}
