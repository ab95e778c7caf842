// Package wal implements the write-ahead log and the binary codec behind
// the engine's durability subsystem. The log is an append-only file of
// CRC-checked frames, each carrying one logical record (DDL, DML or a
// layout change) with a monotonically increasing sequence number.
// Appends are group-committed: writers enqueue encoded frames under a
// short lock and then wait for durability; whichever waiter arrives
// while no flush is running becomes the leader and writes+syncs every
// pending frame (up to MaxBatch) in a single batch, so N concurrent
// writers share one fsync instead of paying one each.
//
// Recovery tolerates a torn tail: replay stops cleanly at the first
// truncated or CRC-corrupt frame, and Open truncates the file back to
// the last valid frame before appending — a partially written record is
// exactly an unacknowledged one, so dropping it preserves the "committed
// iff acknowledged" invariant.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hybridstore/internal/metrics"
)

// Group-commit metrics: one histogram observation per flush batch (not
// per record), so the recording cost is amortized across every writer
// sharing the fsync.
var (
	mFsyncSeconds = metrics.Default().Histogram("hs_wal_fsync_seconds",
		"WAL group-commit write+fsync latency per flush batch", "seconds")
	mBatchFrames = metrics.Default().Histogram("hs_wal_batch_frames",
		"frames merged into one WAL group-commit flush", "")
	mFlushes = metrics.Default().Counter("hs_wal_flushes_total",
		"WAL group-commit flush batches")
	mRecords = metrics.Default().Counter("hs_wal_records_total",
		"records appended to the WAL")
)

// DefaultMaxBatch is the default cap on frames merged into one fsync
// batch. It is the group-commit knob: larger batches amortize syncs
// across more concurrent writers at the cost of per-flush latency.
const DefaultMaxBatch = 256

// frameHeaderLen is the fixed frame prefix: payload length + CRC32C.
const frameHeaderLen = 8

// castagnoli is the CRC polynomial used for frame checksums (hardware-
// accelerated on common platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a log.
type Options struct {
	// MaxBatch caps the frames a group-commit leader flushes in one
	// write+sync round; 0 means DefaultMaxBatch.
	MaxBatch int
	// NoSync skips fsync after batch writes. Only for tests and bulk
	// loads that checkpoint afterwards: a crash can lose acknowledged
	// records.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	return o
}

// Log is an append-only record log with group commit.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	opts Options

	pending  [][]byte // encoded frames awaiting write, in seq order
	nextSeq  uint64   // seq assigned to the next enqueued record
	durable  uint64   // highest seq known written+synced
	flushing bool     // a leader is currently writing a batch
	err      error    // sticky I/O error; the log is dead once set
}

// Open opens (creating if needed) the log at path for appending.
// nextSeq is the sequence number the next enqueued record receives; it
// must be greater than every sequence already in the file (recovery
// passes maxSeq+1). validLen is the byte offset of the end of the last
// valid frame — the file is truncated to it so appends never follow a
// torn frame; pass the size reported by Recover, or 0 for a fresh log.
func Open(path string, nextSeq uint64, validLen int64, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	// Make the (possibly just-created) log's directory entry durable up
	// front: without this, every record acknowledged before the first
	// checkpoint could vanish wholesale if power is lost while the
	// directory entry is still only in the page cache.
	if !opts.NoSync {
		if err := syncParentDir(path); err != nil {
			f.Close()
			return nil, err
		}
	}
	if nextSeq == 0 {
		nextSeq = 1
	}
	l := &Log{f: f, opts: opts.withDefaults(), nextSeq: nextSeq, durable: nextSeq - 1}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// encodeFrame builds [len][crc][seq uvarint + payload].
func encodeFrame(seq uint64, rec *Record) []byte {
	e := NewEncoder()
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	e.Uvarint(seq)
	rec.encode(e)
	payload := e.buf[frameHeaderLen:]
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[4:8], crc32.Checksum(payload, castagnoli))
	return e.buf
}

// Enqueue appends a record to the in-memory pending queue and returns
// its sequence number. The record is NOT durable yet — callers must not
// acknowledge until WaitDurable(seq) returns. Callers serialize Enqueue
// in apply order (the engine enqueues under its write lock), which is
// what makes replay order match apply order.
func (l *Log) Enqueue(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	seq := l.nextSeq
	l.nextSeq++
	l.pending = append(l.pending, encodeFrame(seq, rec))
	mRecords.Inc()
	return seq, nil
}

// WaitDurable blocks until every record up to and including seq is
// written and synced. The first waiter that finds no flush in progress
// becomes the group-commit leader and flushes the whole pending batch.
func (l *Log) WaitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		// Durability is checked before the sticky error: a record that
		// made it to disk is committed even if the log was closed (or
		// died) afterwards, and must not be reported as lost.
		if l.durable >= seq {
			return nil
		}
		if l.err != nil {
			return l.err
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		l.flushBatchLocked()
	}
}

// flushBatchLocked writes and syncs up to MaxBatch pending frames,
// releasing the lock for the I/O. Callers hold l.mu and have checked
// that no flush is in progress.
func (l *Log) flushBatchLocked() {
	batch := l.pending
	if len(batch) > l.opts.MaxBatch {
		batch = batch[:l.opts.MaxBatch]
	}
	if len(batch) == 0 {
		return
	}
	l.pending = l.pending[len(batch):]
	// Frames carry consecutive seqs and pending holds the tail, so the
	// last flushed seq is nextSeq-1 minus what remains queued.
	hi := l.nextSeq - 1 - uint64(len(l.pending))
	l.flushing = true
	f := l.f
	l.mu.Unlock()

	start := time.Now()
	var err error
	for _, frame := range batch {
		if _, werr := f.Write(frame); werr != nil {
			err = werr
			break
		}
	}
	if err == nil && !l.opts.NoSync {
		err = f.Sync()
	}
	mFsyncSeconds.Observe(time.Since(start).Nanoseconds())
	mBatchFrames.Observe(int64(len(batch)))
	mFlushes.Inc()

	l.mu.Lock()
	l.flushing = false
	if err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
	} else {
		l.durable = hi
	}
	l.cond.Broadcast()
}

// Append enqueues a record and waits for it to become durable — the
// convenience path for callers without an enqueue/ack split.
func (l *Log) Append(rec *Record) error {
	seq, err := l.Enqueue(rec)
	if err != nil {
		return err
	}
	return l.WaitDurable(seq)
}

// Sync flushes every pending record to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextSeq - 1
	l.mu.Unlock()
	return l.WaitDurable(target)
}

// NextSeq returns the sequence number the next enqueued record will
// receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Reset truncates the log file to empty after a checkpoint has made its
// contents redundant. Sequence numbers keep increasing monotonically —
// the checkpoint records the cut, so replay can skip stale frames if a
// crash lands between the snapshot rename and this truncate. Callers
// must ensure no concurrent Enqueue (the engine holds its write lock).
func (l *Log) Reset() error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.f.Truncate(0); err != nil {
		l.err = fmt.Errorf("wal: reset: %w", err)
		return l.err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.err = fmt.Errorf("wal: reset seek: %w", err)
		return l.err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: reset sync: %w", err)
			return l.err
		}
	}
	return nil
}

// Abort closes the log file WITHOUT flushing the pending queue: frames
// not yet written stay unwritten, exactly as a process kill would leave
// them. Pending records were by definition never acknowledged (their
// WaitDurable has not returned), so dropping them preserves the
// committed-iff-acknowledged invariant. It exists for crash simulation;
// production shutdown wants Close.
func (l *Log) Abort() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.pending = nil
	if l.err == nil {
		l.err = fmt.Errorf("wal: log is closed")
	}
	l.cond.Broadcast()
	return err
}

// Close flushes pending records and closes the file.
func (l *Log) Close() error {
	syncErr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	closeErr := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = fmt.Errorf("wal: log is closed")
	}
	l.cond.Broadcast()
	if syncErr != nil && !isClosedErr(syncErr) {
		return syncErr
	}
	return closeErr
}

func isClosedErr(err error) bool {
	return err != nil && err.Error() == "wal: log is closed"
}

// syncParentDir fsyncs the directory containing path so a just-created
// file inside it survives a crash.
func syncParentDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("wal: open dir of %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir of %s: %w", path, err)
	}
	return nil
}

// RecoveryInfo summarizes a Recover pass.
type RecoveryInfo struct {
	// MaxSeq is the highest sequence number of a valid frame (0 when
	// the log is empty).
	MaxSeq uint64
	// Records is the number of valid frames read.
	Records int
	// ValidLen is the byte offset of the end of the last valid frame;
	// Open truncates the file to it.
	ValidLen int64
}

// Recover reads the log at path, calling fn for each intact record in
// sequence order. It stops cleanly at the first torn or corrupt frame
// (the un-acknowledged tail of a crash) and reports how far the log was
// valid. A missing file is an empty log, not an error.
func Recover(path string, fn func(seq uint64, rec *Record) error) (RecoveryInfo, error) {
	var info RecoveryInfo
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, fmt.Errorf("wal: read %s: %w", path, err)
	}
	off := 0
	for off+frameHeaderLen <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		body := data[off+frameHeaderLen:]
		if n <= 0 || n > len(body) {
			break // torn tail: length runs past the file
		}
		payload := body[:n]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // torn or corrupt frame
		}
		d := NewDecoder(payload)
		seq := d.Uvarint()
		rec, derr := decodeRecord(d)
		if derr != nil {
			// CRC was valid but the payload does not parse: this is not
			// a torn tail but a format error worth surfacing.
			return info, fmt.Errorf("wal: frame at offset %d (seq %d): %w", off, seq, derr)
		}
		if fn != nil {
			if err := fn(seq, rec); err != nil {
				return info, err
			}
		}
		if seq > info.MaxSeq {
			info.MaxSeq = seq
		}
		info.Records++
		off += frameHeaderLen + n
		info.ValidLen = int64(off)
	}
	return info, nil
}
