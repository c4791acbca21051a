package shard

import (
	"fmt"

	"promips"
	"promips/internal/fsutil"
)

// Promote turns a converged follower into the writable primary — the
// failover step after the old primary dies. It consumes the follower and
// returns a fully functional *Index serving from the follower's directory:
//
//  1. Final drain: one last best-effort tailing pass over the old
//     primary's journals, so any records acknowledged after the last Poll
//     but before the primary died are folded in. Errors here are ignored —
//     the usual reason to promote is that the primary is gone, and a dead
//     primary's unreadable files simply mean there is nothing left to
//     drain; what was already replicated is the state being promoted.
//  2. Durability fold: every child Saves, persisting the replicated
//     in-memory state through the metadata path. Replication applied
//     records without re-journaling them (see Follower), so before this
//     fold a crash of the NEW primary could lose replicated-but-unsaved
//     records; after it, the promoted state stands on its own disk.
//  3. Epoch fence: the SHARDS manifest is rewritten with an epoch strictly
//     above both the replica's lineage epoch and whatever epoch the old
//     primary's manifest claims now. Any follower that later sees the
//     resurrected old primary compares epochs and refuses it
//     (ErrStalePrimary) instead of replaying a forked history.
//
// A child Save failure aborts the promotion with the follower intact and
// still usable as a replica. On success the follower is consumed: its
// Poll returns ErrClosed, its Close becomes a no-op (the returned Index
// owns the children), and only the returned Index may serve traffic.
// Promote does not stop an external poll loop — callers must stop calling
// Poll concurrently with Promote (promipsd cancels its poller first).
func Promote(f *Follower) (*Index, error) {
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	if f.promoted {
		return nil, fmt.Errorf("shard: promote: follower already promoted: %w", promips.ErrClosed)
	}
	// Final drain, best-effort per shard.
	for s := range f.children {
		_, _ = f.pollShard(s)
	}
	newEpoch := f.epoch + 1
	if _, pepoch, err := f.src.Manifest(); err == nil && pepoch+1 > newEpoch {
		newEpoch = pepoch + 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for s, c := range f.children {
		if err := c.Save(); err != nil {
			return nil, fmt.Errorf("shard: promote: save shard %d: %w", s, err)
		}
	}
	if err := writeManifest(fsutil.OS, f.dir, len(f.children), newEpoch); err != nil {
		return nil, fmt.Errorf("shard: promote: %w", err)
	}
	f.promoted = true
	f.epoch = newEpoch
	f.src.Close() // the dead primary's transport is no longer needed
	return &Index{
		shardSet: shardSet{dir: f.dir, children: f.children},
		fs:       fsutil.OS,
		epoch:    newEpoch,
		saved:    true,
	}, nil
}
