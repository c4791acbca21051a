package fsutil

import (
	"errors"
	"sync"
)

// ErrInjected is returned by every FaultFS operation the configured fault
// suppresses. Recovery code must treat it like any other I/O error; tests
// assert on it to distinguish injected faults from real ones.
var ErrInjected = errors.New("fsutil: injected fault")

// Op classifies the mutating operations FaultFS counts and faults. The
// numbering is dense so per-op counters fit an array.
type Op uint8

const (
	OpCreate Op = iota
	OpOpenAppend
	OpWrite
	OpSync
	OpTruncate
	OpRename
	OpRemove
	OpSyncDir
	// OpRead is counted ONLY when FailReads is set (appended last so the
	// numbering — and therefore every existing crash matrix's FailAt
	// landing points — is unchanged when it is off).
	OpRead
	opCount
)

var opNames = [opCount]string{"create", "openappend", "write", "sync", "truncate", "rename", "remove", "syncdir", "read"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// FaultFS is a deterministic fault-injecting FS for crash-consistency
// tests. It delegates to the real filesystem while counting every mutating
// operation (reads are free — a crash cannot corrupt a read), and faults
// the FailAt'th one:
//
//   - Transient mode (Crash=false): operation FailAt returns ErrInjected
//     without being applied; everything before and after succeeds. This
//     exercises the error-return paths — a live process that must stay
//     consistent after a failed write.
//   - Crash mode (Crash=true): operation FailAt is torn — a Write applies
//     a prefix of its bytes, any other op is simply not applied — and every
//     subsequent operation fails with ErrInjected, as if the process died
//     at that instant. The directory then holds exactly the state a real
//     crash at that op boundary could leave, and the test reopens it with
//     the real FS to check recovery.
//
// A FailAt of 0 never faults: the run counts operations (Ops, Count) so a
// crash matrix can first measure a workload's op count K and then replay
// it K times with FailAt = 1..K.
//
// FaultFS is safe for concurrent use; the op order (and therefore which
// logical operation a given FailAt lands on) is deterministic only if the
// workload issues its operations deterministically.
type FaultFS struct {
	// FailAt is the 1-based index of the mutating operation to fault.
	FailAt int
	// Crash selects crash mode (see above).
	Crash bool
	// FailReads makes ReadFile a counted, faultable operation (OpRead).
	// Off by default: a crash cannot corrupt a read, so the crash matrices
	// never count reads — but replication tails a live primary through
	// ReadFile, and its transient-read-failure tests need the Nth read to
	// fail exactly once. Transient mode only; in crash mode reads after
	// the crash fail regardless, like every other op.
	FailReads bool

	mu      sync.Mutex
	ops     int
	counts  [opCount]int
	crashed bool
	onOp    func(Op)
}

// SetOnOp installs (or clears, with nil) a hook invoked before every
// counted mutating operation, OUTSIDE the internal mutex — so the hook may
// block without stalling FaultFS bookkeeping on other goroutines. Tests
// use it as a deterministic latency injector: gating OpSync on a channel
// holds an fsync in flight for as long as the test needs, which is how the
// group-commit concurrency tests widen their race windows without sleeps.
func (f *FaultFS) SetOnOp(fn func(Op)) {
	f.mu.Lock()
	f.onOp = fn
	f.mu.Unlock()
}

// CrashNow crashes the filesystem at the current instant, independent of
// FailAt: every subsequent operation (including one whose OnOp hook is
// blocked right now) fails with ErrInjected, exactly as if the process had
// died. Tests combine it with SetOnOp to crash at a chosen operation whose
// global index is not deterministic — e.g. "the group fsync that covers
// these four concurrent inserts".
func (f *FaultFS) CrashNow() {
	f.mu.Lock()
	f.crashed = true
	f.mu.Unlock()
}

func (f *FaultFS) hook(op Op) {
	f.mu.Lock()
	fn := f.onOp
	f.mu.Unlock()
	if fn != nil {
		fn(op)
	}
}

// Ops returns the number of mutating operations observed (in crash mode,
// up to and including the crashing one).
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Count returns how many operations of one kind were observed.
func (f *FaultFS) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// Crashed reports whether the crash point was reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

type verdict int

const (
	vProceed verdict = iota
	vFail            // do not apply, return ErrInjected
	vTear            // apply a prefix (writes only), return ErrInjected
)

func (f *FaultFS) step(op Op) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return vFail
	}
	f.ops++
	f.counts[op]++
	if f.FailAt != 0 && f.ops == f.FailAt {
		if f.Crash {
			f.crashed = true
			if op == OpWrite {
				return vTear
			}
		}
		return vFail
	}
	return vProceed
}

func (f *FaultFS) Create(path string) (File, error) {
	f.hook(OpCreate)
	if f.step(OpCreate) != vProceed {
		return nil, ErrInjected
	}
	real, err := OS.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: real}, nil
}

func (f *FaultFS) OpenAppend(path string) (File, error) {
	f.hook(OpOpenAppend)
	if f.step(OpOpenAppend) != vProceed {
		return nil, ErrInjected
	}
	real, err := OS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: real}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if f.FailReads {
		f.hook(OpRead)
		if f.step(OpRead) != vProceed {
			return nil, ErrInjected
		}
	}
	return OS.ReadFile(path)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.hook(OpRename)
	if f.step(OpRename) != vProceed {
		return ErrInjected
	}
	return OS.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	f.hook(OpRemove)
	if f.step(OpRemove) != vProceed {
		return ErrInjected
	}
	return OS.Remove(path)
}

func (f *FaultFS) SyncDir(dir string) error {
	f.hook(OpSyncDir)
	if f.step(OpSyncDir) != vProceed {
		return ErrInjected
	}
	return OS.SyncDir(dir)
}

// faultFile routes a file's mutating calls through the shared fault state,
// so a crash configured on the FS also kills writes to files opened before
// the crash point. Close always passes through: a real crash leaks the
// descriptor and the OS closes it without further effect, and tests need
// the handle released so temp directories can be cleaned up.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.hook(OpWrite)
	switch ff.fs.step(OpWrite) {
	case vFail:
		return 0, ErrInjected
	case vTear:
		n, err := ff.f.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.hook(OpSync)
	if ff.fs.step(OpSync) != vProceed {
		return ErrInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	ff.fs.hook(OpTruncate)
	if ff.fs.step(OpTruncate) != vProceed {
		return ErrInjected
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// NoSync is the real filesystem with every fsync — File.Sync and SyncDir —
// made a no-op. Benchmarks that time the CPU side of an update path build
// through it so the disk's flush latency does not swamp what they measure.
// It makes nothing durable: a test seam, never a way to run an index.
var NoSync FS = noSyncFS{}

type noSyncFS struct{ osFS }

func (noSyncFS) Create(path string) (File, error) { return noSyncOpen(OS.Create(path)) }

func (noSyncFS) OpenAppend(path string) (File, error) { return noSyncOpen(OS.OpenAppend(path)) }

func (noSyncFS) SyncDir(string) error { return nil }

func noSyncOpen(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }
