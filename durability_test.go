package promips

// Property: for a random update sequence, an index recovered by journal
// replay (crash without Save, then Open) answers Search and Exact
// byte-identically — ids, inner-product bits, stats — to an index that
// persisted the same updates with a clean Save before reopening.

import (
	"context"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"promips/internal/fsutil"
)

func TestWALReplayEquivalence(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(900 + trial)
		r := rand.New(rand.NewSource(seed))
		data := randData(r, 120, 10)

		build := func(dir string) *Index {
			ix, err := Build(data, Options{Dir: dir, Seed: seed, M: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Save(); err != nil {
				t.Fatal(err)
			}
			return ix
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		ixA, ixB := build(dirA), build(dirB)

		// One random update sequence, applied to both.
		nUpdates := 5 + r.Intn(20)
		acked := 0
		for u := 0; u < nUpdates; u++ {
			if r.Intn(3) == 0 {
				id := uint32(r.Intn(ixA.LiveCount() + 8)) // sometimes absent/deleted
				okA, errA := ixA.DeleteChecked(id)
				okB, errB := ixB.DeleteChecked(id)
				if errA != nil || errB != nil || okA != okB {
					t.Fatalf("trial %d: delete(%d) diverged: %v/%v %v/%v", trial, id, okA, okB, errA, errB)
				}
				if okA {
					acked++
				}
			} else {
				v := randData(r, 1, 10)[0]
				idA, errA := ixA.Insert(v)
				idB, errB := ixB.Insert(v)
				if errA != nil || errB != nil || idA != idB {
					t.Fatalf("trial %d: insert diverged: %d/%d %v/%v", trial, idA, idB, errA, errB)
				}
				acked++
			}
		}

		// A crashes (no Save — only the journal has the updates);
		// B saves cleanly. Close releases fds but never touches the log.
		if err := ixA.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ixB.Save(); err != nil {
			t.Fatal(err)
		}
		if err := ixB.Close(); err != nil {
			t.Fatal(err)
		}

		reA, err := Open(dirA)
		if err != nil {
			t.Fatalf("trial %d: open after crash: %v", trial, err)
		}
		reB, err := Open(dirB)
		if err != nil {
			t.Fatal(err)
		}
		if rec := reA.Recovery(); rec.Replayed != acked {
			t.Fatalf("trial %d: replayed %d of %d acked updates (%+v)", trial, rec.Replayed, acked, rec)
		}
		if rec := reB.Recovery(); rec.Replayed != 0 || rec.Skipped != 0 {
			t.Fatalf("trial %d: cleanly saved index recovered %+v", trial, rec)
		}
		if reA.JournalLen() != acked || reB.JournalLen() != 0 {
			t.Fatalf("trial %d: journal lengths %d/%d, want %d/0", trial, reA.JournalLen(), reB.JournalLen(), acked)
		}

		ctx := context.Background()
		for qi := 0; qi < 12; qi++ {
			q := randData(r, 1, 10)[0]
			resA, statsA, errA := reA.Search(ctx, q, 10)
			resB, statsB, errB := reB.Search(ctx, q, 10)
			if errA != nil || errB != nil {
				t.Fatalf("trial %d q%d: search: %v / %v", trial, qi, errA, errB)
			}
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("trial %d q%d: replayed Search diverged:\n%v\n%v", trial, qi, resA, resB)
			}
			if !reflect.DeepEqual(statsA, statsB) {
				t.Fatalf("trial %d q%d: replayed SearchStats diverged:\n%+v\n%+v", trial, qi, statsA, statsB)
			}
			exA, errA := reA.Exact(context.Background(), q, 10)
			exB, errB := reB.Exact(context.Background(), q, 10)
			if errA != nil || errB != nil || !reflect.DeepEqual(exA, exB) {
				t.Fatalf("trial %d q%d: replayed Exact diverged (%v/%v):\n%v\n%v", trial, qi, errA, errB, exA, exB)
			}
		}
		reA.Close()
		reB.Close()
	}
}

// TestCompactFailureKeepsAcksDurable is the regression test for the
// handover hole a review found: when Compact's persist step fails, the
// index must be untouched — still journaling into the generation CURRENT
// durably names — so updates acknowledged after the failed Compact
// survive a crash. (The broken design swapped the journal target to the
// not-yet-named new generation, whose wal.log a recovery sweep deletes.)
func TestCompactFailureKeepsAcksDurable(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	data := randData(r, 80, 6)

	// Measure how many fs ops a fault-free Build+Save+Compact performs, so
	// the sweep below covers exactly Compact's op range.
	counter := &fsutil.FaultFS{}
	ix0, err := Build(data, Options{Dir: t.TempDir(), Seed: 92, M: 4, fs: counter})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix0.Save(); err != nil {
		t.Fatal(err)
	}
	preOps := counter.Ops()
	if _, err := ix0.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	compactOps := counter.Ops() - preOps
	ix0.Close()

	failed := 0
	for k := 1; k <= compactOps; k++ {
		dir := t.TempDir()
		ffs := &fsutil.FaultFS{}
		ix, err := Build(data, Options{Dir: dir, Seed: 92, M: 4, fs: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}
		ffs.FailAt = ffs.Ops() + k
		_, cerr := ix.Compact(context.Background())
		ffs.FailAt = 0
		if cerr == nil {
			ix.Close()
			t.Fatalf("offset %d: Compact absorbed the fault silently", k)
		}
		failed++

		// Updates acknowledged AFTER the failed Compact must journal into
		// whichever generation a recovery would load — crash and check.
		// One fault point is special: if the CURRENT rename landed but its
		// directory fsync failed (the committed corner), the journal is
		// poisoned — updates must REFUSE acknowledgement rather than
		// promise a durability the pointer cannot back — until a Save
		// completes the handover. That is the documented caller protocol:
		// on a poisoned update error, Save and retry.
		id, err := ix.Insert(randData(rand.New(rand.NewSource(93)), 1, 6)[0])
		if err != nil {
			if serr := ix.Save(); serr != nil {
				t.Fatalf("offset %d: Save to heal poisoned journal: %v (insert err: %v)", k, serr, err)
			}
			id, err = ix.Insert(randData(rand.New(rand.NewSource(93)), 1, 6)[0])
			if err != nil {
				t.Fatalf("offset %d: insert after healing Save: %v", k, err)
			}
		}
		if ok, err := ix.DeleteChecked(11); !ok || err != nil {
			t.Fatalf("offset %d: delete after failed compact: %v %v", k, ok, err)
		}
		ix.Close()

		re, err := Open(dir)
		if err != nil {
			t.Fatalf("offset %d: reopen after failed compact + crash: %v", k, err)
		}
		if rec := re.Recovery(); rec.Replayed != 2 {
			re.Close()
			t.Fatalf("offset %d: recovery = %+v, want the 2 post-compact acks replayed", k, rec)
		}
		if re.LiveCount() != 80 || int(id) != 80 {
			re.Close()
			t.Fatalf("offset %d: LiveCount = %d id = %d, want 80/80", k, re.LiveCount(), id)
		}
		re.Close()
	}
	t.Logf("ack durability held across all %d Compact fault offsets", failed)
}

// TestRecoveryTornTail: a journal whose last record is half-written (the
// canonical crash artifact) must reopen with the acknowledged prefix and
// report the truncation.
func TestRecoveryTornTail(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	data := randData(r, 80, 6)
	dir := t.TempDir()
	ix, err := Build(data, Options{Dir: dir, Seed: 78, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(randData(r, 1, 6)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(randData(r, 1, 6)[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record by chopping bytes off the log's tail.
	walPath := filepath.Join(dir, "wal.log")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer re.Close()
	rec := re.Recovery()
	if rec.Replayed != 1 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want 1 replayed insert and a truncated tail", rec)
	}
	if re.LiveCount() != 81 {
		t.Fatalf("LiveCount = %d, want 81 (one of two inserts survives the tear)", re.LiveCount())
	}
	// The truncation healed the log: a re-reopen must be clean.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if rec := re2.Recovery(); rec.TruncatedBytes != 0 || rec.Replayed != 1 {
		t.Fatalf("second recovery = %+v, want clean replay of 1", rec)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestRestartDoesNotGrowDirectory: reopening an index writes nothing. An
// un-Saved backlog that crossed freezes lives in wal.log and is replayed
// from there on every Open; after a Save it lives in the meta and an Open
// has nothing to recover. Either way the directory's byte count does not
// depend on how often the process restarted.
func TestRestartDoesNotGrowDirectory(t *testing.T) {
	const segmentEntries, inserts = 4, 2*4 + 3
	r := rand.New(rand.NewSource(75))
	dir := t.TempDir()
	ix, err := Build(randData(r, 60, 6), Options{Dir: dir, Seed: 76, M: 4, SegmentEntries: segmentEntries})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	for _, v := range randData(r, inserts, 6) {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.JournalLen(); got != inserts {
		t.Fatalf("JournalLen = %d after %d un-Saved inserts", got, inserts)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// reopenThrice opens and closes the index three times and requires the
	// same recovery report and an unchanged directory size every time.
	reopenThrice := func(phase string, wantRec RecoveryStats) {
		t.Helper()
		want := dirBytes(t, dir)
		for i := 1; i <= 3; i++ {
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("%s, reopen %d: %v", phase, i, err)
			}
			if rec := re.Recovery(); rec != wantRec {
				t.Errorf("%s, reopen %d: recovery %+v, want %+v", phase, i, rec, wantRec)
			}
			if got := re.LiveCount(); got != 60+inserts {
				t.Errorf("%s, reopen %d: LiveCount = %d, want %d", phase, i, got, 60+inserts)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if got := dirBytes(t, dir); got != want {
				t.Errorf("%s, reopen %d: directory holds %d bytes, %d before", phase, i, got, want)
			}
		}
	}
	reopenThrice("backlog in the journal", RecoveryStats{Replayed: inserts})

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.JournalLen(); got != inserts {
		t.Errorf("JournalLen = %d before the Save, want %d", got, inserts)
	}
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	reopenThrice("backlog in the meta", RecoveryStats{})
}
