package promips

// Group-commit regression tests: the ack path must not hold the index lock
// across the journal fsync (searches proceed while an updater's disk is
// busy), overlapping updaters must coalesce onto shared fsyncs, a failed
// group fsync must poison with the retryable sentinel until Save heals,
// and a crash at the group-fsync boundary must recover pre-or-post state
// for every update in the group. FaultFS's SetOnOp latency hook makes all
// of this deterministic — no sleeps standing in for race windows.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"promips/internal/fsutil"
)

// buildGated builds a small index through a FaultFS and
// returns it with a gate on OpSync: after arm() is called, the next fsync
// parks inside the filesystem until release() runs (signaling `entered`
// when it parks). Build's and Save's own fsyncs run before arm, ungated.
func buildGated(t *testing.T, n, d int) (ix *Index, ffs *fsutil.FaultFS, arm func(), entered chan struct{}, release func()) {
	t.Helper()
	r := rand.New(rand.NewSource(91))
	data := randData(r, n, d)
	ffs = &fsutil.FaultFS{}
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 92, M: 4, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	// A Save first, so the directory can be reopened by crash-flavored
	// subtests, and the journal starts empty.
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	entered = make(chan struct{}, 8)
	arm = func() {
		ffs.SetOnOp(func(op fsutil.Op) {
			if op == fsutil.OpSync {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-hold
			}
		})
	}
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return ix, ffs, arm, entered, release
}

// TestSearchNotBlockedBySlowFsync pins the ack-path stall group commit
// removed: a search must complete while an updater's journal fsync is
// still in flight. Before group commit, Insert held ix.mu exclusive across
// the fsync, so the search below would park on the gated disk and time out.
func TestSearchNotBlockedBySlowFsync(t *testing.T) {
	ix, _, arm, entered, release := buildGated(t, 120, 8)
	r := rand.New(rand.NewSource(93))
	q := randData(r, 1, 8)[0]

	arm()
	insDone := make(chan error, 1)
	go func() {
		_, err := ix.Insert(randData(r, 1, 8)[0])
		insDone <- err
	}()
	<-entered // the insert's group fsync is parked inside the filesystem

	searchDone := make(chan error, 1)
	go func() {
		_, _, err := ix.Search(context.Background(), q, 5)
		searchDone <- err
	}()
	select {
	case err := <-searchDone:
		if err != nil {
			t.Fatalf("concurrent search failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search blocked behind an updater's fsync: the ack path is holding the index lock across the disk wait")
	}
	// The insert must still be UNacknowledged — its fsync has not finished.
	select {
	case err := <-insDone:
		t.Fatalf("insert acknowledged before its fsync completed (err=%v)", err)
	default:
	}
	release()
	if err := <-insDone; err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCoalescesAcks: eight updaters racing through the ack path
// while one fsync is parked must all be acknowledged by at most one more —
// and every acknowledged update must survive a reopen.
func TestGroupCommitCoalescesAcks(t *testing.T) {
	const burst = 8
	ix, ffs, arm, entered, release := buildGated(t, 120, 8)
	r := rand.New(rand.NewSource(94))
	vecs := randData(r, burst, 8)

	arm()
	base := ffs.Count(fsutil.OpSync)
	errc := make(chan error, burst)
	for i := 0; i < burst; i++ {
		v := vecs[i]
		go func() {
			_, err := ix.Insert(v)
			errc <- err
		}()
	}
	<-entered // one leader fsync is parked; the rest queue behind it
	// Every record is WRITTEN (writes are not gated) before we release, so
	// all eight acks overlap the parked fsync.
	for ix.JournalLen() < burst {
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < burst; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := ffs.Count(fsutil.OpSync) - base; got > 2 {
		t.Fatalf("%d overlapping acks cost %d fsyncs, want ≤2 (group commit not coalescing)", burst, got)
	}

	// Crash-equivalence: reopening replays every acknowledged record.
	dir := ix.Dir()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovery().Replayed != burst {
		t.Fatalf("reopen replayed %d records, want %d", re.Recovery().Replayed, burst)
	}
	if re.LiveCount() != 120+burst {
		t.Fatalf("LiveCount after reopen = %d, want %d", re.LiveCount(), 120+burst)
	}
}

// TestPoisonedJournalSentinelAndSaveHeals: a failed group fsync poisons
// the journal with the retryable ErrJournalPoisoned sentinel — the failed
// update stays applied in memory but unacknowledged, later updates are
// refused with the sentinel — and a successful Save persists everything
// through the metadata path and heals it.
func TestPoisonedJournalSentinelAndSaveHeals(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	data := randData(r, 100, 8)
	ffs := &fsutil.FaultFS{}
	ix, err := Build(data, Options{Dir: t.TempDir(), Seed: 96, M: 4, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Fail exactly the next fsync — the insert's group commit. The record
	// write (one op before it) succeeds.
	ffs.FailAt = ffs.Ops() + 2
	if _, err := ix.Insert(randData(r, 1, 8)[0]); !errors.Is(err, fsutil.ErrInjected) {
		t.Fatalf("insert under fsync fault = %v, want ErrInjected", err)
	}
	// Applied in memory (the write-ahead record landed), but the journal is
	// now poisoned: further updates are refused with the retryable sentinel.
	if ix.LiveCount() != 101 {
		t.Fatalf("LiveCount after failed group fsync = %d, want 101 (applied, unacknowledged)", ix.LiveCount())
	}
	if _, err := ix.Insert(randData(r, 1, 8)[0]); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("insert on poisoned journal = %v, want ErrJournalPoisoned", err)
	}
	if _, err := ix.DeleteChecked(0); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("delete on poisoned journal = %v, want ErrJournalPoisoned", err)
	}

	// Save persists the applied-but-unacked insert via the metadata path
	// and heals the journal; updates flow again.
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(randData(r, 1, 8)[0]); err != nil {
		t.Fatalf("insert after healing Save = %v", err)
	}
	if ix.LiveCount() != 102 {
		t.Fatalf("LiveCount = %d, want 102", ix.LiveCount())
	}
}

// TestGroupCommitCrashRecovery crashes the filesystem at the group-fsync
// boundary covering four concurrent inserts: none may be acknowledged, and
// a reopen must land on pre-or-post state for each — here post, since all
// four records were fully written before the crashed fsync.
func TestGroupCommitCrashRecovery(t *testing.T) {
	const burst = 4
	ix, ffs, arm, entered, release := buildGated(t, 100, 8)
	r := rand.New(rand.NewSource(97))
	vecs := randData(r, burst, 8)

	arm()
	errc := make(chan error, burst)
	for i := 0; i < burst; i++ {
		v := vecs[i]
		go func() {
			_, err := ix.Insert(v)
			errc <- err
		}()
	}
	<-entered
	for ix.JournalLen() < burst {
		time.Sleep(time.Millisecond)
	}
	// Crash: the parked fsync (and everything after) fails as if the
	// process died at this boundary.
	ffs.CrashNow()
	release()
	for i := 0; i < burst; i++ {
		if err := <-errc; err == nil {
			t.Fatal("insert acknowledged by a crashed group fsync")
		}
	}

	dir := ix.Dir()
	ix.Close() // fds released; the injected-fault errors are expected
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after group-fsync crash: %v", err)
	}
	defer re.Close()
	// All four records were fully written before the crashed fsync, so
	// replay recovers them — the "post" side of pre-or-post. (A crash that
	// tears the WRITES instead is TestCrashMatrix territory: torn tails
	// truncate to the "pre" side.)
	if re.Recovery().Replayed != burst {
		t.Fatalf("replayed %d, want %d", re.Recovery().Replayed, burst)
	}
	if re.LiveCount() != 100+burst {
		t.Fatalf("LiveCount = %d, want %d", re.LiveCount(), 100+burst)
	}
}
