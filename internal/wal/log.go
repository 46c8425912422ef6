package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Segment files are named seg-%08d.wal and begin with a 16-byte header:
// an 8-byte magic followed by the little-endian segment index, so a
// file renamed by accident cannot be replayed under the wrong index.
const (
	segMagic  = "WALSEGM1"
	segHdrLen = 16
)

// Records nobody waits on (aborts, non-transactional journal entries)
// must not pile up in memory: Append writes the pending batch itself
// once it exceeds maxPending and no flush is running, and a written
// buffer larger than maxSpare is dropped instead of kept for reuse.
const (
	maxPending = 1 << 20
	maxSpare   = 2 * maxPending
)

// SegName returns the file name of segment idx.
func SegName(idx uint64) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// Options tune the log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size. Default 8 MiB.
	SegmentBytes int
	// GroupInterval is how long the committing thread that leads a
	// flush lingers before taking the pending batch, so records from
	// other threads join the same write+fsync. Zero takes the batch at
	// once (still batching whatever arrived while the previous write
	// was in flight).
	GroupInterval time.Duration
	// NoFsync skips fsync after each batch write. Crash simulations run
	// in-process, so tests use this to keep the differential fast; real
	// deployments leave it off.
	NoFsync bool
}

// LogStats counts log activity. Fields are read with atomic loads via
// Log.Stats.
type LogStats struct {
	Records  uint64 // records appended
	Bytes    uint64 // payload+frame bytes appended
	Batches  uint64 // batch writes
	Fsyncs   uint64 // fsync calls issued
	Segments uint64 // segment files created
}

// segBuf is one segment: how many bytes (header included) were
// appended to it and how many of those reached its file.
type segBuf struct {
	idx     uint64
	size    int
	written int
	file    *os.File
}

// run is n consecutive bytes of a batch that belong to segment seg.
type run struct {
	seg *segBuf
	n   int
}

// batch is serialized log bytes in append order, split into per-segment
// runs.
type batch struct {
	buf  []byte
	runs []run
}

func (b *batch) add(s *segBuf, n int) {
	if k := len(b.runs) - 1; k >= 0 && b.runs[k].seg == s {
		b.runs[k].n += n
		return
	}
	b.runs = append(b.runs, run{seg: s, n: n})
}

// Log is a segmented append-only redo log with leader/follower group
// commit. Append serializes a record into the pending batch under a
// mutex. A thread that waits for its record while no flush is running
// becomes the leader: it swaps the pending batch for a spare buffer,
// writes (and fsyncs) it with the mutex released, and then acks every
// record in it at once, across all appending threads. Threads that
// wait while a flush is running sleep until it ends and then either
// find their record written or lead the next batch. This amortizes the
// write barrier across threads the same way tm.Batcher amortizes
// transactions, without a hand-off to another goroutine.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	cond       sync.Cond // signalled when a flush ends
	segs       []*segBuf // oldest first; tail = segs[len-1]
	nextSeq    uint64
	flushedSeq uint64 // every record with a lower Seq has been written
	pending    batch  // appended since the last swap
	spare      batch  // the last written batch, kept for reuse
	flushing   bool
	err        error // sticky I/O error
	closed     bool

	records  atomic.Uint64
	bytes    atomic.Uint64
	batches  atomic.Uint64
	fsyncs   atomic.Uint64
	segments atomic.Uint64
}

// OpenLog creates (or reuses) dir and starts a log whose first segment
// has index startSeg and whose first record gets sequence startSeq.
// A fresh log starts at (0, 0); a recovered runtime passes the
// RecoveredState's NextSeg/NextSeq so old and new segments never
// collide.
func OpenLog(dir string, startSeg, startSeq uint64, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: startSeq, flushedSeq: startSeq}
	l.cond.L = &l.mu
	l.newSeg(startSeg)
	return l, nil
}

// newSeg starts segment idx: its header bytes are the next run of the
// pending batch. Called with l.mu held (or before the log is shared).
func (l *Log) newSeg(idx uint64) {
	s := &segBuf{idx: idx, size: segHdrLen}
	l.pending.buf = append(l.pending.buf, segMagic...)
	l.pending.buf = binary.LittleEndian.AppendUint64(l.pending.buf, idx)
	l.pending.add(s, segHdrLen)
	l.segs = append(l.segs, s)
	l.segments.Add(1)
}

// Ack is a handle on the durability of one appended record.
type Ack struct {
	l   *Log
	seq uint64
}

// Wait blocks until the record's batch has been written (and fsynced,
// unless NoFsync) and returns the log's sticky error state. If no
// flush is running, the caller writes the batch itself.
func (a Ack) Wait() error {
	if a.l == nil {
		return nil
	}
	l := a.l
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.settle(func() bool { return l.flushedSeq > a.seq })
}

// Append assigns rec the next sequence number and serializes it into
// the pending batch. The returned Ack waits for the batch containing
// this record; callers that don't need the barrier (aborts,
// non-transactional journal entries) ignore it.
func (l *Log) Append(rec *Record) (Ack, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		if l.err != nil {
			return Ack{}, l.err
		}
		return Ack{}, os.ErrClosed
	}
	rec.Seq = l.nextSeq
	l.nextSeq++
	tail := l.segs[len(l.segs)-1]
	before := len(l.pending.buf)
	l.pending.buf = AppendRecord(l.pending.buf, rec)
	n := len(l.pending.buf) - before
	l.pending.add(tail, n)
	tail.size += n
	l.records.Add(1)
	l.bytes.Add(uint64(n))
	// Rotate at append time so Position() values stay stable: a
	// (segment, offset) pair captured now is never shifted by a later
	// rotation.
	if tail.size >= l.opts.SegmentBytes {
		l.newSeg(tail.idx + 1)
	}
	if len(l.pending.buf) > maxPending && !l.flushing && l.err == nil {
		l.flush(false)
	}
	return Ack{l: l, seq: rec.Seq}, nil
}

// Sync blocks until everything appended so far is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	upto := l.nextSeq
	return l.settle(func() bool { return l.flushedSeq >= upto })
}

// Position returns the current append position: the tail segment index
// and the byte offset within it (header included). A checkpoint records
// this as its log cut; recovery replays records at or after the cut.
func (l *Log) Position() (seg, off uint64) {
	l.mu.Lock()
	tail := l.segs[len(l.segs)-1]
	seg, off = tail.idx, uint64(tail.size)
	l.mu.Unlock()
	return seg, off
}

// TruncateBefore deletes segment files wholly below seg. Only fully
// written, non-tail segments are removed; the checkpointer calls Sync
// first so everything below its cut qualifies.
func (l *Log) TruncateBefore(seg uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idle()
	var firstErr error
	kept := l.segs[:0]
	for i, s := range l.segs {
		if s.idx >= seg || i == len(l.segs)-1 || s.written < s.size {
			kept = append(kept, s)
			continue
		}
		if s.file != nil {
			s.file.Close()
			s.file = nil
		}
		if err := os.Remove(filepath.Join(l.dir, SegName(s.idx))); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	l.segs = kept
	return firstErr
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() LogStats {
	return LogStats{
		Records:  l.records.Load(),
		Bytes:    l.bytes.Load(),
		Batches:  l.batches.Load(),
		Fsyncs:   l.fsyncs.Load(),
		Segments: l.segments.Load(),
	}
}

// Close writes everything pending and closes the segment files. It is
// idempotent. Close writes no seal record; the runtime layer appends
// one (and waits for its ack) before calling Close.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	l.settle(func() bool { return len(l.pending.buf) == 0 })
	l.idle()
	for _, s := range l.segs {
		if s.file != nil {
			s.file.Close()
			s.file = nil
		}
	}
	return l.err
}

// Kill simulates a crash for tests: pending bytes are written (an
// in-process "crash" cannot lose the page cache) and files are closed,
// but no seal is written and the log refuses further appends. Acked
// records are durable at ack time regardless; Kill only decides the
// fate of unacked tail records, and "all of them survived" is one of
// the legal crash outcomes.
func (l *Log) Kill() { l.Close() }

// settle blocks until done reports true or the sticky error is set. It
// leads a flush whenever none is running and otherwise sleeps until the
// running one ends. Called with l.mu held.
func (l *Log) settle(done func() bool) error {
	for l.err == nil && !done() {
		if l.flushing {
			l.cond.Wait()
		} else {
			l.flush(true)
		}
	}
	return l.err
}

// idle waits out an in-flight flush. Called with l.mu held.
func (l *Log) idle() {
	for l.flushing {
		l.cond.Wait()
	}
}

// flush makes the caller the leader: it takes the pending batch
// (lingering GroupInterval first when linger is set), writes it with
// l.mu released, and then acks it. Called with l.mu held, no flush
// running and no sticky error; returns with l.mu held.
func (l *Log) flush(linger bool) {
	l.flushing = true
	if d := l.opts.GroupInterval; linger && d > 0 {
		l.mu.Unlock()
		time.Sleep(d)
		l.mu.Lock()
	}
	b := l.pending
	l.pending, l.spare = l.spare, batch{}
	upto := l.nextSeq
	l.mu.Unlock()

	err := l.write(&b)
	l.batches.Add(1)

	l.mu.Lock()
	if err != nil {
		l.err = err
	} else {
		tail := l.segs[len(l.segs)-1]
		for _, r := range b.runs {
			s := r.seg
			s.written += r.n
			// A fully written non-tail segment is immutable: release its
			// file handle.
			if s != tail && s.written == s.size && s.file != nil {
				s.file.Close()
				s.file = nil
			}
		}
		l.flushedSeq = upto
	}
	if cap(b.buf) <= maxSpare {
		clear(b.runs) // drop segment pointers so truncated segments can be collected
		l.spare = batch{buf: b.buf[:0], runs: b.runs[:0]}
	}
	l.flushing = false
	l.cond.Broadcast()
}

// write appends each run of b to its segment file, creating the file on
// the segment's first run, and fsyncs it unless NoFsync. Only the
// leader calls it, so segment files are not touched concurrently.
func (l *Log) write(b *batch) error {
	off := 0
	for _, r := range b.runs {
		s := r.seg
		if s.file == nil {
			f, err := os.OpenFile(filepath.Join(l.dir, SegName(s.idx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			s.file = f
		}
		if _, err := s.file.Write(b.buf[off : off+r.n]); err != nil {
			return err
		}
		off += r.n
		if !l.opts.NoFsync {
			if err := s.file.Sync(); err != nil {
				return err
			}
			l.fsyncs.Add(1)
		}
	}
	return nil
}
