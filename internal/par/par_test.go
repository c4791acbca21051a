package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			ran := make([]atomic.Int32, n)
			if err := Do(context.Background(), n, func(i int) error { ran[i].Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("procs=%d n=%d: task %d ran %d times", procs, n, i, got)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// At one worker the caller runs the tasks itself, in index order.
func TestDoSingleWorkerOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	if err := Do(context.Background(), 5, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestRangeCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{{0, 4}, {1, 4}, {4, 4}, {5, 4}, {1000, 7}, {3, 100}} {
		seen := make([]atomic.Int32, tc.n)
		err := Range(context.Background(), tc.n, tc.grain, func(lo, hi int) {
			if hi-lo < 1 || hi-lo > tc.grain || lo%tc.grain != 0 {
				t.Errorf("n=%d grain=%d: chunk [%d,%d)", tc.n, tc.grain, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("n=%d grain=%d: index %d covered %d times", tc.n, tc.grain, i, seen[i].Load())
			}
		}
	}
}

// A done context stops Do between tasks: every worker finishes the task it
// is on and starts at most the one it had already claimed. Only tasks that
// start after cancel has returned count: while it runs, the context is not
// done yet and other workers may start any number.
func TestDoStopsWhenContextDone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran, after atomic.Int32
	var cancelled atomic.Bool
	err := Do(ctx, 10000, func(i int) error {
		if cancelled.Load() {
			after.Add(1)
		}
		if ran.Add(1) == 10 {
			cancel()
			cancelled.Store(true)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v", err)
	}
	if got := after.Load(); got > 4 {
		t.Fatalf("%d tasks started after the context was cancelled at the tenth", got)
	}
	cancel()
	if err := Do(ctx, 3, func(int) error { t.Error("task ran under a done context"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v", err)
	}
}

// A task's error stops Do like a done context and is what Do returns: once
// the failing task has returned, each worker starts at most the one task it
// may already have claimed.
func TestDoStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var failed atomic.Bool
		var after atomic.Int32
		err := Do(context.Background(), 10000, func(i int) error {
			if failed.Load() {
				after.Add(1)
				// Slow enough that no worker fits a second task into the
				// instants between the failing task's return and Do seeing it.
				time.Sleep(time.Millisecond)
				return nil
			}
			if i == 10 {
				failed.Store(true)
				return boom
			}
			return nil
		})
		runtime.GOMAXPROCS(prev)
		if !errors.Is(err, boom) {
			t.Fatalf("procs=%d: Do returned %v, want the task's error", procs, err)
		}
		if got := after.Load(); got > int32(procs) {
			t.Fatalf("procs=%d: %d tasks started after the failing one", procs, got)
		}
	}
}
