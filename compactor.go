package promips

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// autoCompactPoll is how often the auto-compactor samples the frozen-
// segment count. Freezes happen at SegmentEntries-insert granularity,
// so sub-second polling tracks even a hot insert stream closely without
// measurable idle cost (two atomic loads and a lock-free stats read per
// tick).
const autoCompactPoll = 500 * time.Millisecond

// AutoCompactor is a background compaction scheduler: it watches an
// index's update pipeline and folds frozen segments into the disk-
// resident structures — through the same Compact handover searches already
// tolerate — once enough of them accumulate. Obtain one from
// Index.StartAutoCompact (or shard.Index.StartAutoCompact) and Stop it
// before Save/Close teardown.
//
// Compaction REASSIGNS ids (densely, dropping tombstones). Enable
// automatic compaction only when no external system holds ids across
// compactions, or when the id remap is tracked some other way; read
// replicas must never run it (a follower's state has to stay a replayable
// function of its primary's WAL).
type AutoCompactor struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	cancel   context.CancelFunc
	runs     atomic.Int64
	failures atomic.Int64
}

// NewAutoCompactor runs compact whenever shouldCompact reports true,
// polling every 500ms. It is the building block Index.StartAutoCompact and
// shard.Index.StartAutoCompact share — most callers want those instead.
// The two closures let one scheduler serve both the single and the sharded
// index without unifying their Compact signatures. The context handed to
// compact is cancelled by Stop.
func NewAutoCompactor(shouldCompact func() bool, compact func(context.Context) error) *AutoCompactor {
	ctx, cancel := context.WithCancel(context.Background())
	c := &AutoCompactor{
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(autoCompactPoll)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
			}
			if !shouldCompact() {
				continue
			}
			if err := compact(ctx); err != nil {
				// ErrEmptyIndex (everything tombstoned) is a no-op, not a
				// failure; anything else counts and retries next tick —
				// compaction is an optimization, never worth crashing over.
				if !errors.Is(err, ErrEmptyIndex) && !errors.Is(err, context.Canceled) {
					c.failures.Add(1)
				}
				continue
			}
			c.runs.Add(1)
		}
	}()
	return c
}

// Stop cancels any in-flight compaction, terminates the scheduler and
// waits for it to exit. Idempotent.
func (c *AutoCompactor) Stop() {
	c.stopOnce.Do(func() {
		c.cancel()
		close(c.stop)
	})
	<-c.done
}

// Runs returns how many compactions the scheduler has completed.
func (c *AutoCompactor) Runs() int64 { return c.runs.Load() }

// Failures returns how many compaction attempts failed (each is retried
// on a later tick).
func (c *AutoCompactor) Failures() int64 { return c.failures.Load() }

// StartAutoCompact launches a background scheduler that compacts this
// index whenever at least minSegments frozen segments have accumulated
// (minSegments < 1 is treated as 1). Every frozen segment is already
// crash-durable in the journal, so the fold needs nothing else on disk.
// Stop the returned scheduler before Close. See AutoCompactor for the
// id-reassignment caveat.
func (ix *Index) StartAutoCompact(minSegments int) *AutoCompactor {
	if minSegments < 1 {
		minSegments = 1
	}
	return NewAutoCompactor(
		func() bool { return ix.UpdateStats().Segments >= minSegments },
		func(ctx context.Context) error {
			_, err := ix.Compact(ctx)
			return err
		},
	)
}
