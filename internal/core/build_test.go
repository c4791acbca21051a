package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"promips/internal/dataset"
	"promips/internal/leaktest"
)

// checkedCtx counts Err calls — Build's cancellation points — and cancels
// itself on call number at (0 = never), which lands a cancellation at a
// chosen depth into a build without a timer.
type checkedCtx struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	calls  atomic.Int64
}

func newCheckedCtx(at int64) *checkedCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &checkedCtx{Context: ctx, cancel: cancel, at: at}
}

func (c *checkedCtx) Err() error {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

type answer struct {
	Results []Result
	Stats   SearchStats
}

func answersOf(t *testing.T, ix *Index, queries [][]float32) []answer {
	t.Helper()
	out := make([]answer, len(queries))
	for i, q := range queries {
		res, st, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = answer{res, st}
	}
	return out
}

// TestCompactCancelledMidBuild cancels a compaction's rebuild at several
// depths — in the per-point stage, while the sketch and the disk half run
// side by side, near the end — and checks Compact's contract each time: the
// context's error comes back with no remap, the rebuild stops within one task
// per worker instead of running to completion, its page files are closed and
// its goroutines gone, and the index still answers from the old generation
// exactly as before.
func TestCompactCancelledMidBuild(t *testing.T) {
	data := dataset.Netflix().Generate(3000, 11)
	opts := Options{Seed: 12, M: 6}
	ix := buildIndex(t, data, opts)
	queries := data[:8]
	want := answersOf(t, ix, queries)

	// One uncancelled build of the same points: how many cancellation
	// points a whole rebuild passes, and how long it takes.
	count := newCheckedCtx(0)
	start := time.Now()
	full, err := Build(count, data, t.TempDir(), opts)
	fullTook := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	full.Close()
	checks := count.calls.Load()
	t.Logf("a whole build tests its context %d times and took %v", checks, fullTook)
	if checks < 20 {
		t.Fatalf("a whole build tested its context only %d times", checks)
	}

	fds, goroutines := leaktest.OpenFDs(t), runtime.NumGoroutine()
	for _, at := range []int64{2, checks / 4, checks / 2, checks - 3} {
		ctx := newCheckedCtx(at)
		start := time.Now()
		remap, err := ix.Compact(ctx, filepath.Join(t.TempDir(), "gen"), nil)
		took := time.Since(start)
		if !errors.Is(err, context.Canceled) || remap != nil {
			t.Fatalf("cancel at check %d/%d: Compact returned remap=%v err=%v", at, checks, remap != nil, err)
		}
		// After the cancellation each pool worker tests the context once more
		// and stops, as do the disk half and the joins.
		if extra := ctx.calls.Load() - at; extra > int64(2*runtime.GOMAXPROCS(0)+4) {
			t.Fatalf("cancel at check %d/%d: %d more checks followed, the rebuild kept going", at, checks, extra)
		}
		if at == checks/4 && took >= fullTook {
			t.Fatalf("cancel a quarter of the way in took %v, a whole build %v", took, fullTook)
		}
		leaktest.SettleGoroutines(t, goroutines)
		if got := leaktest.OpenFDs(t); got != fds {
			t.Fatalf("cancel at check %d/%d: %d open fds, %d before: the abandoned build leaked page files", at, checks, got, fds)
		}
		if got := answersOf(t, ix, queries); !reflect.DeepEqual(got, want) {
			t.Fatalf("cancel at check %d/%d: the old generation answers differently", at, checks)
		}
	}
}

// TestBuildDiskFailureJoinsSketch fails the vector-store writer — orig.data
// is taken by a directory — which happens while the sketch goroutine is still
// training: Build must return that error only after the goroutine is gone,
// with every page file it opened closed.
func TestBuildDiskFailureJoinsSketch(t *testing.T) {
	data := dataset.Netflix().Generate(3000, 13)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "orig.data"), 0o755); err != nil {
		t.Fatal(err)
	}
	fds, goroutines := leaktest.OpenFDs(t), runtime.NumGoroutine()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 14, M: 6})
	if err == nil {
		ix.Close()
		t.Fatal("Build succeeded over an unwritable orig.data")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("Build reported %v, want the store's error", err)
	}
	leaktest.SettleGoroutines(t, goroutines)
	if got := leaktest.OpenFDs(t); got != fds {
		t.Fatalf("%d open fds after the failed build, %d before", got, fds)
	}
}
