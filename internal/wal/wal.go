// Package wal implements the durable update journal: an append-only,
// checksummed record log (wal.log) living inside the active index
// generation. Every acknowledged Insert/Delete appends one record; Open
// replays the log on top of the persisted delta; Save/Compact truncate it
// once the delta is durable in the metadata.
//
// # On-disk format
//
// The file starts with an 8-byte magic ("PMWAL" + version 1 + two zero
// bytes) followed by records:
//
//	record := crc32c(payload) u32 | len(payload) u32 | payload
//	payload := type u8 | id u32 | vector float32-LE...   (insert)
//	payload := type u8 | id u32                          (delete)
//
// All integers are little-endian; the checksum is CRC-32C (Castagnoli).
//
// # Crash discipline
//
// A crash can tear the last record (or the header) mid-write; it can never
// damage earlier bytes of an append-only file. Decode therefore treats any
// trailing anomaly — short header, short record, oversized or undersized
// length, checksum mismatch — as a torn tail: the valid prefix is kept and
// the caller truncates the rest (Open does this automatically). Anomalies
// that a tear cannot produce — wrong magic, an unknown record type or a
// malformed payload protected by a VALID checksum — are reported as
// errs.ErrCorruptIndex.
//
// # Sync policy
//
// Every record is durable before it is acknowledged: Append writes the
// record and returns its LSN, and WaitDurable(lsn) blocks until an fsync
// covering that LSN has completed. The fsyncs are group-committed: whichever
// waiter finds no fsync in flight becomes the leader and issues one fsync
// covering every record written so far, then wakes all waiters whose LSN it
// covered — so N updates racing through the ack path pay ~2 fsyncs between
// them, not N.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"promips/internal/errs"
	"promips/internal/fsutil"
	"promips/internal/vec"
)

var magic = []byte{'P', 'M', 'W', 'A', 'L', 1, 0, 0}

const (
	headerLen = 8
	recHdrLen = 8 // crc u32 + payload length u32
	// maxPayload bounds a record's declared payload length. Large enough
	// for any supported vector (dimension is bounded far below this by the
	// page-size constraint), small enough that a torn or hostile length
	// field cannot force a huge allocation.
	maxPayload = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Type tags a journal record.
type Type uint8

const (
	TypeInsert Type = 1
	TypeDelete Type = 2
)

// Record is one logged update. Vec is nil for deletes. The id is the one
// the update was acknowledged with, so replay can tell records already
// covered by a persisted delta (id below the watermark) from records that
// must be re-applied.
type Record struct {
	Type Type
	ID   uint32
	Vec  []float32
}

// Journal is an open update journal positioned for appending.
//
// Synchronization contract: the file-mutating methods — Append, Reset,
// Close — require external serialization; core.Index already orders them
// under its index lock (appends hold it exclusive, Reset runs inside Save,
// and the public lifecycle lock serializes Saves), and adding a journal
// mutex would tax every insert acknowledgement for ordering the caller has
// already paid for. WaitDurable, SealDurable, Poison and Len are safe
// concurrently with anything — WaitDurable in particular is DESIGNED to
// run outside the caller's lock, so the group fsync never blocks readers.
type Journal struct {
	f    fsutil.File
	size int64 // bytes durably part of the log (header + whole records written)

	count atomic.Int64 // records in the journal
	enc   []byte       // reusable encode scratch

	// Group-commit sequencer state, guarded by gmu. LSNs are 1-based record
	// sequence numbers, monotone over the journal's whole life — Reset
	// truncates the FILE but never rewinds the sequence, so a stale LSN can
	// never be confused with a fresh record's (no ABA across Save cycles).
	gmu     sync.Mutex
	gcond   sync.Cond // signaled whenever durable/bad advance
	written int64     // LSN of the last record fully written to the file
	durable int64     // highest LSN known durable (fsynced, or sealed by covering metadata)
	syncing bool      // a leader's fsync is in flight
	bad     error     // first unhealed failure; poisons the journal until Reset
}

// newJournal wires the sequencer's condition variable.
func newJournal(f fsutil.File, size int64) *Journal {
	j := &Journal{f: f, size: size}
	j.gcond.L = &j.gmu
	return j
}

// Create starts a fresh, empty journal at path, truncating any previous
// file there (Build writes into directories that may hold a stale log).
// The header and the directory entry are made durable before Create
// returns.
func Create(fsys fsutil.FS, path string) (*Journal, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if _, err := f.Write(magic); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync header: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return newJournal(f, headerLen), nil
}

// Open loads the journal at path, decodes its records, clean-truncates any
// torn tail, and returns the journal positioned for append together with
// the decoded records and the number of torn bytes removed. A missing file
// (or one whose header write was itself torn) is treated as an empty
// journal and recreated. On-disk states no crash can produce surface as
// errs.ErrCorruptIndex.
func Open(fsys fsutil.FS, path string) (*Journal, []Record, int64, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			j, cerr := Create(fsys, path)
			return j, nil, 0, cerr
		}
		return nil, nil, 0, fmt.Errorf("wal: read: %w", err)
	}
	recs, validLen, err := Decode(b)
	if err != nil {
		return nil, nil, 0, err
	}
	if validLen < headerLen {
		// Torn header: no record was ever acknowledged from this file.
		// Start over.
		j, cerr := Create(fsys, path)
		return j, nil, int64(len(b)) - validLen, cerr
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("wal: open append: %w", err)
	}
	torn := int64(len(b)) - validLen
	if torn > 0 {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("wal: sync truncated tail: %w", err)
		}
	}
	j := newJournal(f, validLen)
	j.count.Store(int64(len(recs)))
	// Replayed records are on disk and (post-truncate) synced: durable.
	j.written, j.durable = int64(len(recs)), int64(len(recs))
	return j, recs, torn, nil
}

// Decode parses journal bytes and returns the decoded records plus the
// length of the valid prefix (validLen ≤ len(b); the caller truncates the
// rest). A non-nil error is always errs.ErrCorruptIndex-classified and
// means the content cannot be a crash artifact; records decoded before the
// corruption are returned alongside it. Decode never panics on arbitrary
// input — pinned by FuzzDecode.
func Decode(b []byte) ([]Record, int64, error) {
	hdr, err := checkHeader(b)
	if hdr == 0 {
		return nil, 0, err
	}
	recs, validLen, err := DecodeRecords(b[hdr:])
	return recs, hdr + validLen, err
}

// checkHeader checks the file magic and returns where the records start:
// headerLen, or 0 when there are none to read — with a nil error a torn
// header (b is a proper prefix of the magic, so no record was ever
// written), with an error bytes that are not a journal.
func checkHeader(b []byte) (int64, error) {
	if len(b) < headerLen {
		if !bytes.HasPrefix(magic, b) {
			return 0, fmt.Errorf("wal: bad header: %w", errs.ErrCorruptIndex)
		}
		return 0, nil
	}
	if !bytes.HasPrefix(b, magic) {
		return 0, fmt.Errorf("wal: bad magic: %w", errs.ErrCorruptIndex)
	}
	return headerLen, nil
}

// walkRecords is the one walk over a headerless record sequence: it hands
// visit every complete record, in order, decoded, and returns the length of
// the valid prefix. Any trailing anomaly a tear can produce — short record
// header, undersized or oversized length, short payload, checksum mismatch —
// ends the walk cleanly there. A payload that checksums clean but does not
// decode is corruption: the walk stops at that record's start with the
// error.
func walkRecords(b []byte, visit func(Record)) (int64, error) {
	n := int64(len(b))
	var off int64
	for off < n {
		if off+recHdrLen > n {
			break // torn record header
		}
		crc := binary.LittleEndian.Uint32(b[off:])
		plen := int64(binary.LittleEndian.Uint32(b[off+4:]))
		if plen < 5 || plen > maxPayload || off+recHdrLen+plen > n {
			break // torn length field or torn payload
		}
		payload := b[off+recHdrLen : off+recHdrLen+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			break // torn payload
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return off, err
		}
		visit(rec)
		off += recHdrLen + plen
	}
	return off, nil
}

// DecodeRecords parses a headerless record sequence — journal bytes
// starting at any record boundary past the file header. This is the wire
// format network WAL shipping resumes from: a replica that has applied the
// first N bytes of a primary's journal requests the suffix from byte
// offset N, and the chunk it gets back is exactly such a sequence. The
// torn-tail taxonomy is Decode's, unchanged: a chunk truncated mid-record
// (the network analogue of a crash tear) keeps its valid prefix and
// validLen tells the caller where to resume, while checksum-valid garbage
// is errs.ErrCorruptIndex. validLen is relative to the start of b.
func DecodeRecords(b []byte) ([]Record, int64, error) {
	var recs []Record
	validLen, err := walkRecords(b, func(r Record) { recs = append(recs, r) })
	return recs, validLen, err
}

// CountRecords reports how many complete records journal bytes hold,
// ignoring a torn tail — Decode's walk without retaining the records.
// Replication uses it to read a primary's LSN watermark from shipped bytes
// (LSNs restart at the file's record count on open, so the count is the
// durable LSN).
func CountRecords(b []byte) (int, error) {
	hdr, err := checkHeader(b)
	if hdr == 0 {
		return 0, err
	}
	count := 0
	_, err = walkRecords(b[hdr:], func(Record) { count++ })
	return count, err
}

// decodePayload decodes one checksum-verified payload. Anything malformed
// here survived the CRC, so it is corruption (or a version we do not
// speak), never a tear.
func decodePayload(p []byte) (Record, error) {
	rec := Record{Type: Type(p[0]), ID: binary.LittleEndian.Uint32(p[1:5])}
	body := p[5:]
	switch rec.Type {
	case TypeInsert:
		if len(body) == 0 || len(body)%4 != 0 {
			return Record{}, fmt.Errorf("wal: insert record with %d payload bytes: %w", len(p), errs.ErrCorruptIndex)
		}
		rec.Vec = make([]float32, len(body)/4)
		for i := range rec.Vec {
			rec.Vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:]))
		}
	case TypeDelete:
		if len(body) != 0 {
			return Record{}, fmt.Errorf("wal: delete record with %d payload bytes: %w", len(p), errs.ErrCorruptIndex)
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d: %w", rec.Type, errs.ErrCorruptIndex)
	}
	return rec, nil
}

// appendRecord encodes r onto dst. The vector bytes go through the bulk
// little-endian kernel — the insert acknowledgement path runs this per
// update, so the encode must stay near memcpy cost.
func appendRecord(dst []byte, r Record) []byte {
	plen := 5
	if r.Type == TypeInsert {
		plen += 4 * len(r.Vec)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, byte(r.Type))
	dst = binary.LittleEndian.AppendUint32(dst, r.ID)
	if r.Type == TypeInsert {
		dst = vec.AppendF32LE(dst, r.Vec)
	}
	payload := dst[start+recHdrLen:]
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(plen))
	return dst
}

// Append sequences one record into the log and returns its LSN. The record
// is WRITTEN but not yet durable: the caller must acknowledge the update
// only after WaitDurable(lsn) returns nil — the split is what lets core
// release its index lock between the write and the fsync. On a write
// failure the journal heals itself by truncating back to the last good size
// — the caller's memory state is untouched and the failed bytes can never
// precede a later record; if even the heal fails, the journal is poisoned
// (every later Append returns ErrJournalPoisoned wrapping the original
// failure) until a Reset succeeds.
func (j *Journal) Append(r Record) (int64, error) {
	j.gmu.Lock()
	if j.bad != nil {
		err := j.poisonedErrLocked()
		j.gmu.Unlock()
		return 0, err
	}
	j.gmu.Unlock()
	j.enc = appendRecord(j.enc[:0], r)
	if err := j.write(j.enc, "append"); err != nil {
		return 0, err
	}
	j.count.Add(1)
	j.gmu.Lock()
	j.written++
	lsn := j.written
	j.gmu.Unlock()
	return lsn, nil
}

// WaitDurable blocks until every record up to lsn is durable and returns
// nil, or returns the error that makes durability impossible (the journal
// was poisoned, or this group's fsync failed). It runs the group-commit
// protocol: the first waiter that finds no fsync in flight becomes the
// leader and fsyncs once for ALL records written so far; waiters that
// arrive while that fsync is in flight sleep, and whichever of them the
// completed fsync did not cover elects the next leader — so any burst of
// concurrent appenders is drained by at most two fsyncs. Safe for
// concurrent use and intended to be called WITHOUT the caller's index
// lock.
func (j *Journal) WaitDurable(lsn int64) error {
	j.gmu.Lock()
	defer j.gmu.Unlock()
	for {
		// Durability is checked before poison: a record covered by an
		// earlier fsync (or sealed by covering metadata) stays acknowledged
		// even if the journal failed afterwards.
		if lsn <= j.durable {
			return nil
		}
		if j.bad != nil {
			return j.poisonedErrLocked()
		}
		if !j.syncing {
			j.syncing = true
			j.gmu.Unlock()
			// Group-commit gather: yield once before capturing the fsync's
			// target so updaters already acknowledged by the previous round
			// (or past their index lock) can land their records and join
			// this fsync instead of electing another. This matters most at
			// GOMAXPROCS=1, where the fsync syscall below pins the only P —
			// without the yield, waiters pile onto the NEXT round and a
			// saturated ack path degrades toward one fsync per record.
			runtime.Gosched()
			j.gmu.Lock()
			target := j.written
			j.gmu.Unlock()
			err := j.f.Sync()
			j.gmu.Lock()
			j.syncing = false
			if err != nil {
				// A failed group fsync cannot be healed by truncation: the
				// covered records are already applied in their callers'
				// memory (and possibly on disk). Poison — no further update
				// is acknowledged until a Save re-establishes durability
				// through the metadata path and Resets the journal.
				if j.bad == nil {
					j.bad = fmt.Errorf("wal: group fsync: %w", err)
				}
			} else if target > j.durable {
				j.durable = target
			}
			j.gcond.Broadcast()
			continue
		}
		j.gcond.Wait()
	}
}

// poisonedErrLocked wraps the poisoning failure in the retryable sentinel.
// Caller holds gmu.
func (j *Journal) poisonedErrLocked() error {
	return fmt.Errorf("wal: %w by earlier failure: %w", errs.ErrJournalPoisoned, j.bad)
}

// write puts enc at the end of the log, healing or poisoning on failure;
// on success j.size advances. Durability is WaitDurable's business.
func (j *Journal) write(enc []byte, what string) error {
	n, err := j.f.Write(enc)
	if err == nil && n < len(enc) {
		err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(enc))
	}
	if err == nil {
		j.size += int64(len(enc))
		return nil
	}
	// Heal: cut back to the last record boundary. The failed bytes may or
	// may not be on disk; either way nothing after j.size is acknowledged.
	if terr := j.f.Truncate(j.size); terr != nil {
		j.gmu.Lock()
		if j.bad == nil {
			j.bad = err
		}
		j.gcond.Broadcast()
		j.gmu.Unlock()
	}
	return fmt.Errorf("wal: %s: %w", what, err)
}

// Len returns the number of records currently in the journal (replayed at
// Open plus appended since, minus Resets). Len
// is safe to call concurrently with any other method.
func (j *Journal) Len() int { return int(j.count.Load()) }

// Poisoned reports whether the journal is refusing acknowledgements
// (see Poison) — the readiness signal promipsd's /v1/readyz surfaces for a
// primary: a poisoned journal means writes bounce with ErrJournalPoisoned
// until a Save heals it, so the node is alive but not ready for update
// traffic. Safe to call concurrently with any other method.
func (j *Journal) Poisoned() bool {
	j.gmu.Lock()
	defer j.gmu.Unlock()
	return j.bad != nil
}

// Poison puts the journal in the failed state: every Append (and every
// WaitDurable for a not-yet-durable LSN) returns ErrJournalPoisoned
// wrapping err until a Reset succeeds. Callers use it when the journal's
// backing guarantee has been lost out-of-band — e.g. the generation
// pointer that makes this journal the recovered one could not be fsynced —
// so that no update can be acknowledged against a durability promise that
// cannot be kept. Safe for concurrent use; waiters are woken.
func (j *Journal) Poison(err error) {
	j.gmu.Lock()
	if j.bad == nil {
		j.bad = err
	}
	j.gcond.Broadcast()
	j.gmu.Unlock()
}

// SealDurable marks every record written so far as durable OUT-OF-BAND:
// the caller established durability through another channel — the records
// were folded into a new generation whose metadata and generation pointer
// are fsynced — so waiters are acknowledged without another fsync of this
// (retired) file. Compact uses it on the old generation's journal right
// before closing it; without the seal, an in-flight WaitDurable would race
// the Close and fail a group fsync whose records are in fact durable.
// Safe for concurrent use.
func (j *Journal) SealDurable() {
	j.gmu.Lock()
	if j.written > j.durable {
		j.durable = j.written
	}
	j.gcond.Broadcast()
	j.gmu.Unlock()
}

// Reset empties the journal — called once the updates it logs are durable
// in the persisted metadata. That precondition means every written record
// is durable REGARDLESS of how the truncation below fares, so Reset first
// seals the sequencer (releasing any in-flight WaitDurable with success —
// their records are covered by the meta that prompted the Reset) and
// clears the poisoned state. A successful Reset clears poisoning for
// appends too: whatever half-written bytes poisoned it are gone with the
// truncate. A crash between the metadata fsync and Reset is safe: replay
// is idempotent against the persisted delta (ids below the watermark are
// skipped, deletes re-apply).
func (j *Journal) Reset() error {
	j.gmu.Lock()
	if j.written > j.durable {
		j.durable = j.written
	}
	j.gcond.Broadcast()
	j.gmu.Unlock()
	if err := j.f.Truncate(headerLen); err != nil {
		j.Poison(err)
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.Poison(err)
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	j.size = headerLen
	j.count.Store(0)
	j.gmu.Lock()
	j.bad = nil
	j.gmu.Unlock()
	return nil
}

// Close releases the file. It deliberately does NOT truncate: the journal
// must survive Close so a crash-after-close (or a process that never Saves)
// still replays.
func (j *Journal) Close() error { return j.f.Close() }
