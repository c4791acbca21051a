package promips

// The crash matrix: run one canonical lifecycle workload —
// Build → Save → Insert/Delete → Save → Compact → update → Save — through
// the fault-injecting filesystem, once per mutating filesystem operation
// the workload performs, crashing at exactly that operation. After every
// simulated crash the directory is reopened with the real filesystem and
// must hold either the pre- or the post-state of the operation in flight —
// every update acknowledged before the crash included —
// and must never surface as corrupt. A second, transient pass injects a
// plain error (no crash) at every op and asserts the live process stays
// exactly consistent: whatever the error swallowed is absent, everything
// acknowledged is present, and a final Save round-trips byte-identically.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"promips/internal/fsutil"
)

// crashSig is the logical state fingerprint used by the matrix: the live
// count, the bit patterns of the top-k inner products for a fixed probe
// set (the approximate path must work on every recovered state), and —
// the discriminating part — the bit patterns of EVERY live point's exact
// inner product with the first probe. The exact scan fingerprints the
// whole live set, so losing or resurrecting any single update changes the
// signature (a weaker top-k-only signature was measured to miss exactly
// the ordering bug the matrix exists to catch). Ids are deliberately
// excluded — Compact remaps them, and the matrix compares states across
// that boundary.
type crashSig struct {
	Live  int
	IPs   [][]uint64
	Exact []uint64
}

func signatureOf(t *testing.T, ix *Index, probes [][]float32) crashSig {
	t.Helper()
	sig := crashSig{Live: ix.LiveCount()}
	for _, q := range probes {
		res, _, err := ix.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatalf("probe search: %v", err)
		}
		bits := make([]uint64, len(res))
		for i, r := range res {
			bits[i] = math.Float64bits(r.IP)
		}
		sig.IPs = append(sig.IPs, bits)
	}
	all, err := ix.Exact(context.Background(), probes[0], ix.LiveCount()+1)
	if err != nil {
		t.Fatalf("probe exact: %v", err)
	}
	for _, r := range all {
		sig.Exact = append(sig.Exact, math.Float64bits(r.IP))
	}
	return sig
}

// crashStep is one acknowledged operation of the workload. Steps are
// single operations on purpose: "pre- or post-state" is only a meaningful
// assertion at single-operation granularity.
type crashStep struct {
	name string
	run  func(ix *Index) error
}

func crashWorkloadSteps(points [][]float32) []crashStep {
	return []crashStep{
		{"save-initial", func(ix *Index) error { return ix.Save() }},
		{"insert-60", func(ix *Index) error { _, err := ix.Insert(points[0]); return err }},
		{"insert-61", func(ix *Index) error { _, err := ix.Insert(points[1]); return err }},
		{"delete-base-5", func(ix *Index) error { _, err := ix.DeleteChecked(5); return err }},
		{"delete-delta-61", func(ix *Index) error { _, err := ix.DeleteChecked(61); return err }},
		{"save-with-delta", func(ix *Index) error { return ix.Save() }},
		{"insert-62", func(ix *Index) error { _, err := ix.Insert(points[2]); return err }},
		{"compact", func(ix *Index) error { _, err := ix.Compact(context.Background()); return err }},
		{"insert-post-compact", func(ix *Index) error { _, err := ix.Insert(points[3]); return err }},
		// The second post-compact insert hits the freeze threshold
		// (SegmentEntries=2), so the generation the Compact handover
		// installed also recovers and saves a frozen segment.
		{"insert-post-compact-2", func(ix *Index) error { _, err := ix.Insert(points[4]); return err }},
		{"delete-post-compact-7", func(ix *Index) error { _, err := ix.DeleteChecked(7); return err }},
		{"save-final", func(ix *Index) error { return ix.Save() }},
	}
}

// runCrashWorkload drives the workload against dir through fsys. It
// returns the number of completed steps: -1 if Build itself failed, 0..n
// otherwise, stopping at the first step error when stopOnError is set
// (crash semantics — the process is dead) and running every remaining
// step otherwise (transient semantics — the process saw an error and
// keeps serving). record, when non-nil, is called after Build and after
// every completed step.
func runCrashWorkload(fsys fsutil.FS, dir string, data, points [][]float32,
	stopOnError bool, record func(*Index)) (completed int, ix *Index, firstErr error) {
	// SegmentEntries 2 makes the workload freeze segments before and after
	// the Compact, so every fault point recovers across freeze boundaries.
	ix, err := Build(data, Options{Dir: dir, Seed: 42, M: 4, fs: fsys,
		SegmentEntries: 2})
	if err != nil {
		return -1, nil, err
	}
	if record != nil {
		record(ix)
	}
	for _, st := range crashWorkloadSteps(points) {
		if err := st.run(ix); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("step %s: %w", st.name, err)
			}
			if stopOnError {
				return completed, ix, firstErr
			}
			continue
		}
		completed++
		if record != nil {
			record(ix)
		}
	}
	return completed, ix, firstErr
}

func crashMatrixInputs() (data, points, probes [][]float32) {
	r := rand.New(rand.NewSource(4242))
	data = randData(r, 60, 8)
	points = randData(r, 5, 8)
	probes = randData(r, 3, 8)
	return
}

// TestCrashMatrix is the crash pass: every fault point, crash, reopen.
func TestCrashMatrix(t *testing.T) {
	data, points, probes := crashMatrixInputs()

	// Pass 0: no fault. Records the op count and the state signature after
	// every step; determinism makes these valid for every later run.
	counter := &fsutil.FaultFS{}
	var sigs []crashSig
	completed, ix, err := runCrashWorkload(counter, t.TempDir(), data, points, true,
		func(ix *Index) { sigs = append(sigs, signatureOf(t, ix, probes)) })
	if err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	steps := crashWorkloadSteps(points)
	if completed != len(steps) {
		t.Fatalf("fault-free workload completed %d of %d steps", completed, len(steps))
	}
	ix.Close()
	opCount := counter.Ops()
	if opCount < len(steps) {
		t.Fatalf("implausible op count %d", opCount)
	}
	t.Logf("workload: %d steps, %d mutating fs ops", len(steps), opCount)

	for fail := 1; fail <= opCount; fail++ {
		ffs := &fsutil.FaultFS{FailAt: fail, Crash: true}
		dir := t.TempDir()
		completed, ix, runErr := runCrashWorkload(ffs, dir, data, points, true, nil)
		if ix != nil {
			ix.Close() // a dead process's fds; errors are expected and irrelevant
		}
		if runErr == nil {
			t.Fatalf("fail=%d: crash was not observed by any step", fail)
		}
		if !ffs.Crashed() {
			t.Fatalf("fail=%d: workload errored (%v) without reaching the fault", fail, runErr)
		}

		re, err := Open(dir)
		if err != nil {
			if errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("fail=%d (crash at %v): reopen says corrupt: %v", fail, runErr, err)
			}
			if completed >= 1 {
				// The first Save completed, so from then on every crash
				// state must be openable.
				t.Fatalf("fail=%d: %d steps completed but reopen failed: %v", fail, completed, err)
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("fail=%d: pre-first-Save reopen failed with unexpected class: %v", fail, err)
			}
			continue
		}
		sig := signatureOf(t, re, probes)
		if err := re.Close(); err != nil {
			t.Fatalf("fail=%d: close reopened: %v", fail, err)
		}
		if completed < 0 {
			t.Fatalf("fail=%d: Build crashed (%v) yet the directory opens", fail, runErr)
		}
		// sigs[i] is the state after i completed steps. The crashed step
		// may or may not have reached the disk.
		ok := reflect.DeepEqual(sig, sigs[completed])
		if !ok && completed+1 < len(sigs) {
			ok = reflect.DeepEqual(sig, sigs[completed+1])
		}
		if !ok {
			t.Fatalf("fail=%d: reopened state after crash in step %d (%v) matches neither pre nor post signature",
				fail, completed+1, runErr)
		}
	}
}

// TestCrashMatrixTransient is the transient pass: every fault point
// returns an error once, the process keeps running, and the final state —
// exactly the acknowledged updates — must round-trip through Save+Open.
func TestCrashMatrixTransient(t *testing.T) {
	data, points, probes := crashMatrixInputs()

	counter := &fsutil.FaultFS{}
	if _, ix, err := runCrashWorkload(counter, t.TempDir(), data, points, true, nil); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	} else {
		ix.Close()
	}
	opCount := counter.Ops()

	for fail := 1; fail <= opCount; fail++ {
		ffs := &fsutil.FaultFS{FailAt: fail}
		dir := t.TempDir()
		_, ix, runErr := runCrashWorkload(ffs, dir, data, points, false, nil)
		if ix == nil {
			// Build itself absorbed the fault; nothing was ever saved.
			if _, err := Open(dir); err == nil || errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("fail=%d: build-failed dir opened (or corrupt): %v", fail, err)
			}
			continue
		}
		// The process lives on: whatever the fault cost, a Save now must
		// succeed (the workload's own final Save may have been the faulted
		// step, hence the retry here) and the reopened index must answer
		// exactly like the live one — no lost acks, no resurrected
		// failures.
		if err := ix.Save(); err != nil {
			t.Fatalf("fail=%d (fault was %v): Save after transient fault: %v", fail, runErr, err)
		}
		want := signatureOf(t, ix, probes)
		if err := ix.Close(); err != nil {
			t.Fatalf("fail=%d: close: %v", fail, err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("fail=%d: reopen after healed transient fault: %v", fail, err)
		}
		if got := signatureOf(t, re, probes); !reflect.DeepEqual(got, want) {
			t.Fatalf("fail=%d (fault was %v): reopened state diverged from the live index", fail, runErr)
		}
		if rec := re.Recovery(); rec.Replayed != 0 {
			t.Fatalf("fail=%d: replay after a successful Save replayed %d records", fail, rec.Replayed)
		}
		re.Close()
	}
}
