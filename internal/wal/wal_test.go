package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"promips/internal/errs"
	"promips/internal/fsutil"
)

// logRecord appends r and waits for its durability — the full acknowledge
// cycle a single-threaded caller runs (core splits the two halves around
// its index lock; see Append/WaitDurable).
func logRecord(j *Journal, r Record) error {
	lsn, err := j.Append(r)
	if err != nil {
		return err
	}
	return j.WaitDurable(lsn)
}

func mkRecords() []Record {
	return []Record{
		{Type: TypeInsert, ID: 100, Vec: []float32{1, -2.5, 3.25}},
		{Type: TypeDelete, ID: 7},
		{Type: TypeInsert, ID: 101, Vec: []float32{0, 0.5, -0.125}},
		{Type: TypeDelete, ID: 100},
	}
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
		if len(got[i].Vec) != len(want[i].Vec) {
			t.Fatalf("record %d vec len = %d, want %d", i, len(got[i].Vec), len(want[i].Vec))
		}
		for k := range got[i].Vec {
			if got[i].Vec[k] != want[i].Vec[k] {
				t.Fatalf("record %d vec[%d] = %v, want %v", i, k, got[i].Vec[k], want[i].Vec[k])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, err := Create(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want := mkRecords()
	for _, r := range want {
		if err := logRecord(j, r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != len(want) {
		t.Fatalf("Len = %d", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, got, torn, err := Open(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 0 {
		t.Fatalf("torn = %d", torn)
	}
	recordsEqual(t, got, want)
	if j2.Len() != len(want) {
		t.Fatalf("reopened Len = %d", j2.Len())
	}
}

func TestOpenMissingCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, recs, torn, err := Open(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 0 || torn != 0 {
		t.Fatalf("recs=%d torn=%d", len(recs), torn)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file not created: %v", err)
	}
}

// TestTornTailTruncated chops the file mid-record at every possible byte
// boundary: reopen must keep exactly the records whose bytes fully
// survived and truncate the rest, never erroring.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, err := Create(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want := mkRecords()
	var sizes []int64 // file size after each record
	for _, r := range want {
		if err := logRecord(j, r); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(path)
		sizes = append(sizes, st.Size())
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, torn, err := Open(fsutil.OS, p)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantN := 0
		for _, s := range sizes {
			if int64(cut) >= s {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: got %d records, want %d", cut, len(got), wantN)
		}
		recordsEqual(t, got, want[:wantN])
		if int64(cut) > sizesOr(sizes, wantN) && torn == 0 {
			t.Fatalf("cut=%d: expected torn bytes reported", cut)
		}
		// The torn tail must be gone from disk.
		st, _ := os.Stat(p)
		if wantN > 0 && st.Size() != sizes[wantN-1] {
			t.Fatalf("cut=%d: file size %d after reopen, want %d", cut, st.Size(), sizes[wantN-1])
		}
		// And the journal must accept appends cleanly after truncation.
		if err := logRecord(j2, Record{Type: TypeDelete, ID: 9}); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		j2.Close()
		_, got2, _, err := Open(fsutil.OS, p)
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		if len(got2) != wantN+1 {
			t.Fatalf("cut=%d: %d records after re-append, want %d", cut, len(got2), wantN+1)
		}
	}
}

func sizesOr(sizes []int64, n int) int64 {
	if n == 0 {
		return int64(headerLen)
	}
	return sizes[n-1]
}

func TestBadMagicIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("NOTAWAL0records"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(fsutil.OS, path)
	if !errors.Is(err, errs.ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrCorruptIndex", err)
	}
}

func TestValidCRCBadPayloadIsCorrupt(t *testing.T) {
	// A record with a correct checksum over a malformed payload (unknown
	// type) cannot be a crash artifact: Decode must say corrupt.
	b := append([]byte{}, magic...)
	b = appendRecord(b, Record{Type: Type(9), ID: 1})
	_, _, err := Decode(b)
	if !errors.Is(err, errs.ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrCorruptIndex", err)
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, err := Create(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mkRecords() {
		if err := logRecord(j, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("Len after reset = %d", j.Len())
	}
	if err := logRecord(j, Record{Type: TypeDelete, ID: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, torn, err := Open(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(recs) != 1 || recs[0].ID != 3 {
		t.Fatalf("after reset+append: torn=%d recs=%+v", torn, recs)
	}
}

// TestSyncPolicy pins the policy's observable contract through the fault
// injector's op counters: a SEQUENTIAL caller pays one fsync per
// acknowledged record (group commit only amortizes overlapping waiters).
func TestSyncPolicy(t *testing.T) {
	ffs := &fsutil.FaultFS{}
	j, err := Create(ffs, filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	base := ffs.Count(fsutil.OpSync)
	for i := 0; i < 3; i++ {
		if err := logRecord(j, Record{Type: TypeDelete, ID: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ffs.Count(fsutil.OpSync) - base; got != 3 {
		t.Fatalf("%d fsyncs for 3 sequential appends", got)
	}
	j.Close()
}

// TestAppendFailureHealsOrPoisons: a torn append must either be cut back
// out of the file (heal) or poison the journal so no later record can
// land after garbage.
func TestAppendFailureHealsOrPoisons(t *testing.T) {
	dir := t.TempDir()
	// Create = create+write+sync+syncdir (ops 1-4). Append = write; the
	// group fsync lives in WaitDurable. Fail the first append's write
	// (op 5), crash mode off so the healing truncate (op 6) succeeds.
	ffs := &fsutil.FaultFS{FailAt: 5}
	j, err := Create(ffs, filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := logRecord(j, Record{Type: TypeInsert, ID: 0, Vec: []float32{1, 2}}); !errors.Is(err, fsutil.ErrInjected) {
		t.Fatalf("append err = %v", err)
	}
	// Healed: the next append must succeed and the log must hold exactly it.
	if err := logRecord(j, Record{Type: TypeDelete, ID: 5}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	j.Close()
	_, recs, torn, err := Open(fsutil.OS, filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(recs) != 1 || recs[0].Type != TypeDelete || recs[0].ID != 5 {
		t.Fatalf("after heal: torn=%d recs=%+v", torn, recs)
	}

	// Now fail the write AND the healing truncate: the journal must poison.
	ffs2 := &fsutil.FaultFS{FailAt: 5, Crash: true}
	j2, err := Create(ffs2, filepath.Join(dir, "wal2.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := logRecord(j2, Record{Type: TypeDelete, ID: 1}); err == nil {
		t.Fatal("append should fail")
	}
	if err := logRecord(j2, Record{Type: TypeDelete, ID: 2}); err == nil {
		t.Fatal("poisoned journal accepted a record")
	} else if !errors.Is(err, errs.ErrJournalPoisoned) {
		t.Fatalf("poisoned append err = %v, want ErrJournalPoisoned", err)
	}
}

// TestGroupCommitCoalesces drives the sequencer with concurrent waiters:
// while one fsync is gated, every other appender queues behind it, and
// releasing the gate must drain them all with at most one more fsync —
// N overlapping acknowledgements, ≤2 fsyncs.
func TestGroupCommitCoalesces(t *testing.T) {
	const n = 8
	ffs := &fsutil.FaultFS{}
	j, err := Create(ffs, filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	ffs.SetOnOp(func(op fsutil.Op) {
		if op == fsutil.OpSync {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-hold
		}
	})

	// Appends require external serialization (core holds its index lock);
	// emulate that with a mutex, then wait concurrently — the real shape of
	// the core ack path.
	var appendMu sync.Mutex
	base := ffs.Count(fsutil.OpSync)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(id uint32) {
			appendMu.Lock()
			lsn, err := j.Append(Record{Type: TypeDelete, ID: id})
			appendMu.Unlock()
			if err != nil {
				errc <- err
				return
			}
			errc <- j.WaitDurable(lsn)
		}(uint32(i))
	}
	<-entered // a leader fsync is in flight
	// Wait until every record is written (writes are not gated), so the
	// remaining waiters are all queued behind the in-flight fsync.
	for j.Len() < n {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := ffs.Count(fsutil.OpSync) - base; got > 2 {
		t.Fatalf("%d overlapping acks cost %d fsyncs, want ≤2", n, got)
	}
}

// TestSealDurable: sealing marks written records durable out-of-band — a
// later WaitDurable returns without fsyncing, and a follower queued behind
// a stuck leader fsync is released by the seal alone. This is the Compact
// handover path, where durability comes from the new generation's
// persisted metadata rather than this journal's file.
func TestSealDurable(t *testing.T) {
	ffs := &fsutil.FaultFS{}
	j, err := Create(ffs, filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Sealed-before-wait: no fsync at all.
	lsn, err := j.Append(Record{Type: TypeDelete, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := ffs.Count(fsutil.OpSync)
	j.SealDurable()
	if err := j.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable after seal = %v", err)
	}
	if got := ffs.Count(fsutil.OpSync) - base; got != 0 {
		t.Fatalf("sealed WaitDurable issued %d fsyncs, want 0", got)
	}

	// Sealed mid-flight: gate the leader's fsync, queue a follower behind
	// it, and check the seal releases the follower while the leader is
	// still stuck on the gate.
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	ffs.SetOnOp(func(op fsutil.Op) {
		if op == fsutil.OpSync {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-hold
		}
	})
	lsn1, err := j.Append(Record{Type: TypeDelete, ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { lead <- j.WaitDurable(lsn1) }()
	<-entered // leader fsync in flight, gated
	lsn2, err := j.Append(Record{Type: TypeDelete, ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	follow := make(chan error, 1)
	go func() { follow <- j.WaitDurable(lsn2) }()
	j.SealDurable()
	select {
	case err := <-follow:
		if err != nil {
			t.Fatalf("follower after seal = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("seal did not release the queued follower")
	}
	close(hold)
	if err := <-lead; err != nil {
		t.Fatalf("leader after gate release = %v", err)
	}
}

func FuzzDecode(f *testing.F) {
	// Seed corpus: a real journal, its truncations, and corruptions.
	b := append([]byte{}, magic...)
	for _, r := range mkRecords() {
		b = appendRecord(b, r)
	}
	f.Add(b)
	f.Add(b[:len(b)-3])
	f.Add(b[:headerLen])
	f.Add(b[:3])
	f.Add([]byte{})
	bad := append([]byte{}, b...)
	bad[headerLen+10] ^= 0xff
	f.Add(bad)
	f.Add(append([]byte{}, "garbage that is definitely not a journal"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := Decode(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		if err != nil && !errors.Is(err, errs.ErrCorruptIndex) {
			t.Fatalf("non-taxonomy error: %v", err)
		}
		// The valid prefix must re-decode to the same records, cleanly.
		recs2, validLen2, err2 := Decode(data[:validLen])
		if err != nil {
			// Corruption sits right at validLen; the prefix before it is clean.
			if err2 != nil && errors.Is(err2, errs.ErrCorruptIndex) && validLen2 == validLen {
				// The corrupt record's bytes were excluded, so the prefix
				// must now decode clean; reaching here means it did not.
				t.Fatalf("prefix still corrupt after exclusion: %v", err2)
			}
		} else if err2 != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err2)
		}
		if len(recs2) != len(recs) || validLen2 != validLen {
			t.Fatalf("re-decode mismatch: %d/%d records, %d/%d bytes", len(recs2), len(recs), validLen2, validLen)
		}
	})
}

// TestCountRecords pins CountRecords against Decode: for a valid journal,
// every torn-tail prefix of it, and corrupt variants, the count must equal
// len(Decode's records) with the same error classification — the follower's
// lag computation depends on the two walking the bytes identically.
func TestCountRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, err := Create(fsutil.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mkRecords() {
		if err := logRecord(j, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		b := full[:cut]
		recs, _, decErr := Decode(b)
		n, cntErr := CountRecords(b)
		if (decErr == nil) != (cntErr == nil) {
			t.Fatalf("cut=%d: Decode err=%v, CountRecords err=%v", cut, decErr, cntErr)
		}
		if n != len(recs) {
			t.Fatalf("cut=%d: CountRecords=%d, Decode found %d", cut, n, len(recs))
		}
	}
	// Corruption classifies identically too.
	bad := append([]byte("XXWAL"), full[5:]...)
	if _, err := CountRecords(bad); !errors.Is(err, errs.ErrCorruptIndex) {
		t.Fatalf("bad magic: got %v, want ErrCorruptIndex", err)
	}
	if n, err := CountRecords(nil); n != 0 || err != nil {
		t.Fatalf("empty bytes: n=%d err=%v", n, err)
	}
}
