package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjectedShard is returned by a fan-out operation the configured
// Faults suppressed. Degradation logic must treat it like any other shard
// failure; tests assert on it to distinguish injected faults from real
// ones — the shard-level mirror of the filesystem harness's ErrInjected.
var ErrInjectedShard = errors.New("shard: injected fan-out fault")

// Faults is a deterministic shard-level fault injector for the fan-out
// query path — the same count-op/fail-op-N model the filesystem crash
// harness (internal fsutil.FaultFS) uses, lifted one failure domain up:
// instead of tearing a write, it fails or wedges one shard's part of a
// fanned-out Search.
//
// Every per-shard Search operation a fan-out issues is counted in that
// shard's own op stream (per-shard streams are ordered even though the
// fan-out itself is concurrent, so fault points are deterministic for a
// deterministic query workload). The FailAt'th operation on shard Shard is
// faulted:
//
//   - Fail mode (Wedge=false): the operation returns ErrInjectedShard
//     immediately — a crashed or erroring shard.
//   - Wedge mode (Wedge=true): the operation blocks until its context is
//     done and returns the context's error — a stuck shard, the case
//     per-shard deadlines (WithShardTimeout) exist for. Without a
//     deadline the op blocks until the caller's own context ends.
//
// Delay adds a fixed latency to every operation of a shard (interruptible
// by the per-shard context) — the "one slow shard" model the degraded
// fan-out benchmark measures. Delay and FailAt compose: the delay is
// served first.
//
// A zero Faults never fires; FailAt = 0 only counts. Install with
// Index.SetFaults or Follower.SetFaults (nil uninstalls). The injector
// applies to fanned-out Search/SearchBatch only — Exact is the ground
// truth tests fingerprint state with, so it stays fault-free.
type Faults struct {
	// Shard is the shard whose op stream is faulted.
	Shard int
	// FailAt is the 1-based operation index within Shard's stream to
	// fault; 0 never faults (counting only).
	FailAt int
	// Wedge selects wedge mode (block until context done) over fail mode.
	Wedge bool
	// Delay adds latency to every op of the given shards.
	Delay map[int]time.Duration

	mu       sync.Mutex
	ops      map[int]int
	injected int
}

// enter is called by the fan-out at the start of shard s's part of a
// query. It serves the configured delay, then decides whether this op is
// the faulted one.
func (f *Faults) enter(ctx context.Context, s int) error {
	if d := f.Delay[s]; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	f.mu.Lock()
	if f.ops == nil {
		f.ops = make(map[int]int)
	}
	f.ops[s]++
	fire := f.FailAt != 0 && s == f.Shard && f.ops[s] == f.FailAt
	if fire {
		f.injected++
	}
	f.mu.Unlock()
	if !fire {
		return nil
	}
	if f.Wedge {
		<-ctx.Done()
		return fmt.Errorf("%w: shard %d wedged: %w", ErrInjectedShard, s, ctx.Err())
	}
	return fmt.Errorf("%w: shard %d op %d", ErrInjectedShard, s, f.FailAt)
}

// Ops returns how many fan-out operations shard s has served (including
// the faulted one) — the measurement pass a fault matrix sizes FailAt
// sweeps with.
func (f *Faults) Ops(s int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[s]
}

// Injected reports how many operations were actually faulted.
func (f *Faults) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// SetFaults installs (or, with nil, removes) a fan-out fault injector on
// a primary or a replica. For tests and benchmarks: the injector makes
// shard failures, wedges and slow shards deterministic, which is how the
// chaos matrix and the degraded-search benchmark drive the failure domain
// without real hardware faults.
func (ss *shardSet) SetFaults(f *Faults) {
	ss.faultsMu.Lock()
	ss.faults = f
	ss.faultsMu.Unlock()
}

func (ss *shardSet) getFaults() *Faults {
	ss.faultsMu.Lock()
	defer ss.faultsMu.Unlock()
	return ss.faults
}
