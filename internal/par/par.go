// Package par is the worker pool index construction runs on. Build work is
// cut into tasks that share nothing but read-only inputs and each write
// their own output slot, so the result does not depend on which worker ran
// which task or on how many workers there were; every reduction across
// tasks is done by the caller, after the join, in index order.
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

// Do runs task(0) … task(n-1), each exactly once, and returns when all that
// started have finished. ctx is tested before every task: once it is done
// no further task starts and Do returns ctx.Err() (the outputs are then
// incomplete and must be discarded).
func Do(ctx context.Context, n int, task func(i int)) error {
	var next atomic.Int64
	worker := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			task(i)
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
	return ctx.Err()
}

// Range runs body over [0, n) cut into contiguous chunks of at most grain
// indexes, as Do tasks. Chunk boundaries depend only on n and grain.
func Range(ctx context.Context, n, grain int, body func(lo, hi int)) error {
	return Do(ctx, (n+grain-1)/grain, func(c int) {
		body(c*grain, min((c+1)*grain, n))
	})
}
