// Package par is the one worker pool: index construction and SearchBatch
// both run on it. Work is cut into tasks that share nothing but read-only
// inputs and each write their own output slot, so the result does not
// depend on which worker ran which task or on how many workers there were;
// every reduction across tasks is done by the caller, after the join, in
// index order.
//
// The worker count is runtime.GOMAXPROCS(0), with no knob. The calling
// goroutine is one of the workers, so at one worker the tasks simply run in
// index order on the caller.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs task(0) … task(n-1), each at most once, and returns when all that
// started have finished. ctx is tested before every task, and a task that
// returns an error stops the pool the same way: no further task starts, and
// Do returns the first error a task returned, or else ctx.Err(). Either way
// the outputs are then incomplete and must be discarded.
func Do(ctx context.Context, n int, task func(i int) error) error {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	worker := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := task(i); err != nil {
				failed.Store(true)
				errOnce.Do(func() { firstErr = err })
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Range runs body over [0, n) cut into contiguous chunks of at most grain
// indexes, as Do tasks. Chunk boundaries depend only on n and grain.
func Range(ctx context.Context, n, grain int, body func(lo, hi int)) error {
	return Do(ctx, (n+grain-1)/grain, func(c int) error {
		body(c*grain, min((c+1)*grain, n))
		return nil
	})
}
