package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			ran := make([]atomic.Int32, n)
			if err := Do(context.Background(), n, func(i int) { ran[i].Add(1) }); err != nil {
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
	if err := Do(context.Background(), 5, func(i int) { order = append(order, i) }); err != nil {
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
// is on and starts no other.
func TestDoStopsWhenContextDone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := Do(ctx, 10000, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v", err)
	}
	if got := ran.Load(); got > 10+4 {
		t.Fatalf("%d tasks ran after the context was cancelled at the tenth", got-10)
	}
	cancel()
	if err := Do(ctx, 3, func(int) { t.Error("task ran under a done context") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v", err)
	}
}
