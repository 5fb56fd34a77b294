// Package wal implements an append-only log: CRC-framed records in
// rotating segment files, batched group-commit fsync, and truncation of
// the segments whose records are kept elsewhere. It has two users: the
// store's commitlog, one per process for all of its nodes, whose records
// a flush makes redundant, and each node's tier manifest
// (objstore.Manifest), whose records a snapshot image makes redundant.
//
// One damage rule governs recovery, for both. A frame is read by length
// and CRC, the segment header counting as the first frame. Damage in the
// newest segment with no valid frame after it is a torn tail — an append
// cut short by a crash, never acknowledged — and Open cuts it. Damage
// with a valid frame after it, or anywhere in a sealed segment, may hold
// acknowledged records, and fails with ErrCorrupt unless the caller
// opted into TolerateCorruptTail. Bit rot in the last record looks like a
// torn tail and is cut: a user that must tell the two apart cross-checks
// what it acted on (the tier manifest's stubs, see persist).
//
// The log is payload-agnostic — callers hand it opaque byte records and
// get back an LSN whose segment index drives truncation.
//
// Durability contract: in batch mode (the default, SyncPeriod == 0) Append
// returns only after the record is flushed and fsynced, with concurrent
// appenders sharing one fsync (group commit — the first waiter becomes the
// sync leader while the rest park on a condition variable). In periodic
// mode (SyncPeriod > 0) Append returns immediately and a background ticker
// syncs, trading a bounded window of acked-but-volatile records for
// throughput, like Cassandra's commitlog_sync: periodic.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/fsys"
	"hpclog/internal/obs"
)

const (
	fileHeader = "HPWAL001"
	headerLen  = len(fileHeader) + 8 // magic + u64 segment index
	frameLen   = 8                   // u32 payload length + u32 crc32
	// maxRecordBytes is a corruption sanity bound on decoded frame lengths.
	maxRecordBytes = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt marks structural damage that is not an ordinary torn tail: a
// bad frame or segment header followed by a valid frame in the newest
// segment (Open), or any malformed frame in a sealed segment (Replay).
// Truncating silently would discard records that may have been
// acknowledged, so both paths fail instead. Options.TolerateCorruptTail downgrades the failure to
// skipping/truncating at the damage.
var ErrCorrupt = errors.New("wal: segment corrupted")

// LSN locates a record: the segment file index and the byte offset of its
// frame within that segment. Segment indices start at 1.
type LSN struct {
	Seg uint64
	Off int64
}

// Options configures a commitlog.
type Options struct {
	// Dir holds the wal-<seg>.log segment files.
	Dir string
	// SegmentBytes rotates the active segment once it grows past this size
	// (default 8 MiB).
	SegmentBytes int64
	// SyncPeriod selects the sync mode: 0 (default) is batch group-commit,
	// every Append waits for fsync; > 0 is periodic, Append returns after
	// the buffered write and a background ticker fsyncs.
	SyncPeriod time.Duration
	// NoSync skips fsync entirely (benchmarks and bulk loads only — a
	// crash may lose acked records).
	NoSync bool
	// Logger, when set, receives structured warnings about recovery
	// actions that discard data (torn-tail truncation, tolerated corrupt
	// segments). Nil stays silent — the counters in Stats record the same
	// facts either way.
	Logger *slog.Logger
	// TolerateCorruptTail downgrades damage in the newest segment, its
	// header included, from a hard ErrCorrupt failure to the torn-tail
	// treatment: truncate at the last valid record before the damage,
	// counting the discarded bytes in Stats.TornBytes. This is an explicit
	// recovery escape hatch for operators who prefer losing the records
	// after the damage to a log that refuses to open. It matters after
	// power loss: an unsynced multi-page write can persist out of order
	// and mimic corruption without any acked record at risk — in
	// periodic/NoSync mode, but also in the default batch mode for the
	// final group-commit batch whose fsync never returned (none of its
	// appends were acked).
	TolerateCorruptTail bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// Stats is a snapshot of commitlog counters.
type Stats struct {
	Appends           int64
	Syncs             int64
	Rotations         int64
	BytesWritten      int64
	Segments          int64 // live segment files
	TruncatedSegments int64 // segment files removed by TruncateBelow
	TornBytes         int64 // torn-tail bytes discarded at open
}

// Log is an append-only commitlog. All methods are safe for concurrent
// use, except Replay which must complete before the first Append.
type Log struct {
	opts Options

	mu        sync.Mutex // guards the file state below
	f         fsys.File
	w         *bufWriter
	seg       uint64 // active segment index
	size      int64  // bytes written to the active segment (incl. header)
	firstSeg  uint64 // lowest live segment index
	appendSeq int64  // count of appends issued
	closed    bool
	// wErr latches the first write/rotate failure: buffered bytes may have
	// been lost, so every subsequent operation must fail rather than
	// acknowledge records that can no longer reach disk.
	wErr error

	sm        sync.Mutex // guards the group-commit state below
	cond      *sync.Cond
	syncedSeq int64 // appends known durable
	syncing   bool
	syncErr   error // latched: a failed sync poisons the log

	stopPeriodic    chan struct{}
	donePeriodic    chan struct{}
	periodicStopped bool // guarded by mu

	appends   atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64
	bytes     atomic.Int64
	truncated atomic.Int64
	torn      atomic.Int64

	// fsync accumulates the latency of every data fsync (group-commit,
	// periodic, and rotation syncs). Recording is wait-free, so it adds
	// nanoseconds to a path that just paid a disk flush; /v1/metrics
	// exposes the store commitlog's as hpclog_wal_fsync_seconds.
	fsync obs.Hist
}

// FsyncHist exposes the fsync latency histogram for metrics exposition.
func (l *Log) FsyncHist() *obs.Hist { return &l.fsync }

// logger returns the configured logger or a discard sink.
func (l *Log) logger() *slog.Logger {
	if l.opts.Logger != nil {
		return l.opts.Logger
	}
	return obs.Discard()
}

// bufWriter is a minimal buffered writer (bufio.Writer without the
// interface indirection) so Append's hot path stays allocation-free.
type bufWriter struct {
	f   fsys.File
	buf []byte
}

func (b *bufWriter) write(p []byte) {
	b.buf = append(b.buf, p...)
}

func (b *bufWriter) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// Open opens (creating if needed) the commitlog in opts.Dir. The torn tail
// of the newest segment — a record cut mid-write by a crash — is detected
// by CRC, counted in Stats.TornBytes, and truncated away so appends resume
// at the last durable record boundary. Complete records are never touched:
// damage, the segment header included, with a whole valid frame after it
// is corruption, not a torn tail, and Open fails with ErrCorrupt rather
// than discarding the valid data.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := fsys.MkdirSync(opts.Dir); err != nil {
		return nil, err
	}
	l := &Log{opts: opts}
	l.cond = sync.NewCond(&l.sm)
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		l.firstSeg = 1
		if err := l.createSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		l.firstSeg = segs[0]
		last := segs[len(segs)-1]
		clean, size, resumes, err := walkSegment(opts.Dir, last, -1, nil)
		if err != nil {
			return nil, err
		}
		if resumes && !opts.TolerateCorruptTail {
			return nil, fmt.Errorf("wal: %s@%d: damage followed by valid frames (reopen with TolerateCorruptTail to truncate at the damage, losing the records after it): %w",
				segPath(opts.Dir, last), clean, ErrCorrupt)
		}
		if clean == 0 {
			// Nothing before the damage survives, not even the header (a
			// crash during segment creation): start the segment afresh.
			err = l.createSegmentLocked(last)
		} else {
			err = l.reopenSegment(last, clean, clean < size)
		}
		if err != nil {
			return nil, err
		}
		if torn := size - clean; torn > 0 {
			l.torn.Add(torn)
			l.logger().Warn("wal: truncated torn tail",
				"segment", last, "bytes", torn, "clean_end", l.size)
		}
	}
	if opts.SyncPeriod > 0 {
		l.stopPeriodic = make(chan struct{})
		l.donePeriodic = make(chan struct{})
		go l.periodicSync()
	}
	return l, nil
}

func segPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seg))
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := fsys.OS.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		var seg uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%016d.log", &seg); n == 1 && err == nil {
			segs = append(segs, seg)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// reopenSegment resumes appending to segment seg at cleanEnd, cutting the
// torn tail after it first.
func (l *Log) reopenSegment(seg uint64, cleanEnd int64, torn bool) error {
	f, err := fsys.OS.OpenFile(segPath(l.opts.Dir, seg), fsys.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if torn {
		err = f.Truncate(cleanEnd)
	}
	if err == nil {
		_, err = f.Seek(cleanEnd, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.w, l.seg, l.size = f, &bufWriter{f: f}, seg, cleanEnd
	// Neither the records it holds nor the cut is known durable: the
	// next sync or rotation makes them so.
	l.syncedSeq = -1
	return nil
}

// createSegmentLocked starts segment seg as a fresh file, emptying one of
// its name (caller holds mu, or the log is not yet shared). Only its name
// is synced: the first record's sync covers the header too, and a crash
// that lost the header lost the first frame beside it, and with it every
// record Open could replay, so Open starts the segment afresh.
func (l *Log) createSegmentLocked(seg uint64) error {
	f, err := fsys.OS.Create(segPath(l.opts.Dir, seg))
	if err != nil {
		return err
	}
	var hdr [headerLen]byte
	copy(hdr[:], fileHeader)
	binary.LittleEndian.PutUint64(hdr[len(fileHeader):], seg)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := fsys.SyncPath(l.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	w := &bufWriter{f: f}
	if l.w != nil {
		// A rotation flushed the old segment's buffer; keep its capacity
		// instead of growing a new one for every segment.
		w.buf = l.w.buf[:0]
	}
	l.f = f
	l.w = w
	l.seg = seg
	l.size = int64(headerLen)
	return nil
}

// Append writes one record and, in batch mode, blocks until it is durable.
// The returned LSN's segment index feeds flush bookkeeping: a WAL segment
// may be truncated only once every memtable holding its records has been
// flushed to immutable storage.
func (l *Log) Append(payload []byte) (LSN, error) {
	lsn, seq, err := l.Write(nil, payload)
	if err != nil {
		return lsn, err
	}
	return lsn, l.Wait(seq)
}

// Write writes one record, head followed by body, and returns without
// waiting for it to be durable: Wait(seq) does. Records written before a
// Wait share its sync, so a caller that writes several records and then
// waits once pays one fsync in batch mode. head may be nil; the frame's
// payload is the two side by side.
func (l *Log) Write(head, body []byte) (LSN, int64, error) {
	plen := len(head) + len(body)
	if plen == 0 {
		// An empty record's frame (plen=0, crc=0 — CRC32C of an empty
		// payload is 0) is byte-identical to zero-filled pages left by a
		// torn write, so recovery treats all-zero frames as a torn tail.
		// Forbidding empty appends keeps that rule unambiguous.
		return LSN{}, 0, errors.New("wal: empty record")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return LSN{}, 0, ErrClosed
	}
	if l.wErr != nil {
		err := l.wErr
		l.mu.Unlock()
		return LSN{}, 0, err
	}
	lsn := LSN{Seg: l.seg, Off: l.size}
	var frame [frameLen]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Update(crc32.Checksum(head, crcTable), crcTable, body))
	l.w.write(frame[:])
	l.w.write(head)
	l.w.write(body)
	l.size += int64(frameLen + plen)
	l.appendSeq++
	seq := l.appendSeq
	l.appends.Add(1)
	l.bytes.Add(int64(frameLen + plen))
	var rerr error
	if l.size >= l.opts.SegmentBytes {
		rerr = l.rotateLocked()
	}
	l.mu.Unlock()
	return lsn, seq, rerr
}

// Wait returns once the records written up to seq are durable: in batch
// mode it blocks for them, sharing one fsync with every concurrent waiter
// (group commit); in periodic and NoSync mode it returns at once.
func (l *Log) Wait(seq int64) error {
	if l.opts.NoSync || l.opts.SyncPeriod > 0 {
		// Even on the no-wait paths a latched sync failure must surface:
		// acking writes that a poisoned background sync will never persist
		// would turn the bounded periodic-mode loss window into unbounded
		// silent loss.
		l.sm.Lock()
		defer l.sm.Unlock()
		return l.syncErr
	}
	return l.waitDurable(seq)
}

// waitDurable blocks until appends up to seq are fsynced, electing the
// first waiter as the group-commit leader.
func (l *Log) waitDurable(seq int64) error {
	l.sm.Lock()
	for l.syncedSeq < seq {
		if l.syncErr != nil {
			err := l.syncErr
			l.sm.Unlock()
			return err
		}
		if !l.syncing {
			l.syncing = true
			l.sm.Unlock()
			target, err := l.flushAndSync()
			l.sm.Lock()
			l.syncing = false
			l.settle(target, err)
		} else {
			l.cond.Wait()
		}
	}
	l.sm.Unlock()
	return nil
}

// flushAndSync flushes the buffer and fsyncs, returning the append
// sequence the sync covers. Never called with sm held.
func (l *Log) flushAndSync() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		// Close already flushed and synced everything.
		return l.appendSeq, nil
	}
	if l.wErr != nil {
		return 0, l.wErr
	}
	target := l.appendSeq
	if err := l.w.flush(); err != nil {
		l.wErr = err
		return 0, err
	}
	if !l.opts.NoSync {
		started := time.Now()
		if err := l.f.Sync(); err != nil {
			l.wErr = err
			return 0, err
		}
		l.fsync.Record(time.Since(started))
	}
	l.syncs.Add(1)
	return target, nil
}

// rotateLocked seals the active segment (flush + fsync + close) and starts
// the next one. Everything appended so far is durable afterwards; when it
// already was (every append acknowledged in batch mode), the fsync is
// skipped. Any failure poisons the log — buffered records of concurrent
// appenders may be gone, so they must observe the error instead of a
// successful (empty-buffer) sync advancing syncedSeq past them.
func (l *Log) rotateLocked() error {
	l.sm.Lock()
	durable := l.syncedSeq >= l.appendSeq
	l.sm.Unlock()
	err := l.w.flush()
	if err == nil && !durable && !l.opts.NoSync {
		started := time.Now()
		err = l.f.Sync()
		if err == nil {
			l.fsync.Record(time.Since(started))
		}
	}
	if err == nil && !durable {
		l.syncs.Add(1)
	}
	if err == nil {
		err = l.f.Close()
	}
	l.sm.Lock()
	l.settle(l.appendSeq, err)
	l.sm.Unlock()
	if err != nil {
		l.wErr = err
		return err
	}
	l.rotations.Add(1)
	if err := l.createSegmentLocked(l.seg + 1); err != nil {
		l.wErr = err
		return err
	}
	return nil
}

// settle publishes that appends up to seq are durable, or latches err when
// it is not nil, and wakes every waiter. Caller holds sm.
func (l *Log) settle(seq int64, err error) {
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if seq > l.syncedSeq {
		l.syncedSeq = seq
	}
	l.cond.Broadcast()
}

// synced reports whether every append issued so far is already durable.
func (l *Log) synced() bool {
	l.mu.Lock()
	seq := l.appendSeq
	l.mu.Unlock()
	l.sm.Lock()
	defer l.sm.Unlock()
	return l.syncedSeq >= seq
}

func (l *Log) periodicSync() {
	defer close(l.donePeriodic)
	t := time.NewTicker(l.opts.SyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-l.stopPeriodic:
			return
		case <-t.C:
			if l.synced() {
				// Nothing appended since the last sync: an fsync now would
				// be a disk round trip that makes nothing more durable. An
				// append landing right after this check waits for the next
				// tick, as one landing right after a sync always has.
				continue
			}
			target, err := l.flushAndSync()
			l.sm.Lock()
			l.settle(target, err)
			l.sm.Unlock()
		}
	}
}

// Rotate seals the active segment and starts a fresh one, so that a
// subsequent TruncateBelow(ActiveSeg()) can retire every record appended
// so far. A no-op when the active segment is empty. Used by explicit
// checkpoints (store.DB.Flush) — size-based rotation happens automatically
// on Append.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.wErr != nil {
		return l.wErr
	}
	if l.size <= int64(headerLen) {
		return nil
	}
	return l.rotateLocked()
}

// ActiveSeg returns the index of the segment currently appended to.
func (l *Log) ActiveSeg() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Replay invokes fn for every record in LSN order and returns how many
// it handed over. It must complete before the first Append (the store
// replays during open). Records live in already-sealed files plus the
// active segment's durable prefix; the torn tail, if any, was removed by
// Open.
//
// Damage in a SEALED segment (possible when a NoSync rotation sealed it
// without fsync and power was lost) surfaces as an ErrCorrupt-wrapped
// error. With Options.TolerateCorruptTail the damaged segment's remaining
// records are skipped (counted in Stats.TornBytes) and replay continues
// with the later segments — safe because rows carry logical write
// timestamps, so last-write-wins reconciliation does not depend on replay
// order. Errors returned by fn itself are never tolerated.
func (l *Log) Replay(fn func(lsn LSN, payload []byte) error) (int64, error) {
	l.mu.Lock()
	first, last, activeEnd := l.firstSeg, l.seg, l.size
	l.mu.Unlock()
	var records int64
	count := func(lsn LSN, payload []byte) error {
		records++
		return fn(lsn, payload)
	}
	for seg := first; seg <= last; seg++ {
		end := int64(-1)
		if seg == last {
			end = activeEnd
		}
		clean, end, _, err := walkSegment(l.opts.Dir, seg, end, count)
		if err != nil {
			return records, err
		}
		if clean == end {
			continue
		}
		if !l.opts.TolerateCorruptTail {
			return records, fmt.Errorf("wal: %s@%d: damaged frame (reopen with TolerateCorruptTail to skip the damaged segment remainder, losing its records): %w",
				segPath(l.opts.Dir, seg), clean, ErrCorrupt)
		}
		l.torn.Add(end - clean)
		l.logger().Warn("wal: skipped corrupt segment remainder",
			"segment", seg, "bytes", end-clean, "offset", clean)
	}
	return records, nil
}

// frame is what readFrame finds at one offset of a segment.
type frame struct {
	whole   bool   // it lies before the end and its length is sane
	valid   bool   // whole, and its checksum matches
	next    int64  // where the following frame starts; set when whole
	payload []byte // a record frame's payload, in buf when it was large enough
}

// readFrame reads the frame at off of segment seg, of which the first end
// bytes are read. The segment header is the frame at offset 0: whole when
// its headerLen bytes lie before end, valid when they hold the magic and
// seg. A record frame is whole when its length is non-zero, at most
// maxRecordBytes, and its payload ends by end; valid when the payload
// matches its CRC. A zero length is never whole: Append rejects empty
// records, and an all-zero frame (CRC32C of an empty payload is 0) is the
// zero-filled pages of a torn write. buf is reused for the payload.
func readFrame(f fsys.File, seg uint64, off, end int64, buf []byte) (frame, error) {
	if off == 0 {
		var hdr [headerLen]byte
		if end < int64(headerLen) {
			return frame{}, nil
		}
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			return frame{}, err
		}
		valid := string(hdr[:len(fileHeader)]) == fileHeader &&
			binary.LittleEndian.Uint64(hdr[len(fileHeader):]) == seg
		return frame{whole: true, valid: valid, next: int64(headerLen)}, nil
	}
	var hdr [frameLen]byte
	if off+frameLen > end {
		return frame{}, nil
	}
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return frame{}, err
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	next := off + frameLen + plen
	if plen == 0 || plen > maxRecordBytes || next > end {
		return frame{}, nil
	}
	if int64(cap(buf)) < plen {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err := f.ReadAt(buf, off+frameLen); err != nil {
		return frame{}, err
	}
	valid := crc32.Checksum(buf, crcTable) == binary.LittleEndian.Uint32(hdr[4:8])
	return frame{whole: true, valid: valid, next: next, payload: buf}, nil
}

// walkSegment reads segment seg's frames, header first, over its first end
// bytes (the whole file when end < 0), and hands fn each record before the
// first frame that is not valid. It returns that frame's offset (clean ==
// end when there is none), end, and whether a valid record frame lies
// after the damage: the walk goes on past it by chaining the lengths of
// whole frames, so damage spanning several payloads is still found while
// their length fields survived, and stops at a frame that is not whole
// (a torn write or zero fill), which is never evidence. Errors from fn are
// returned as they are.
func walkSegment(dir string, seg uint64, end int64, fn func(LSN, []byte) error) (clean, size int64, resumes bool, err error) {
	f, err := fsys.OS.Open(segPath(dir, seg))
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	if end < 0 {
		st, err := f.Stat()
		if err != nil {
			return 0, 0, false, err
		}
		end = st.Size()
	}
	clean = -1 // no damage found yet
	var buf []byte
	for off := int64(0); off < end; {
		fr, err := readFrame(f, seg, off, end, buf)
		if err != nil {
			return 0, end, false, err
		}
		switch {
		case !fr.whole:
			if clean < 0 {
				clean = off
			}
			return clean, end, false, nil
		case !fr.valid:
			if clean < 0 {
				clean = off
			}
		case clean >= 0:
			return clean, end, true, nil
		case off > 0 && fn != nil:
			if err := fn(LSN{Seg: seg, Off: off}, fr.payload); err != nil {
				return off, end, false, err
			}
		}
		off, buf = fr.next, fr.payload
	}
	if clean < 0 {
		clean = end
	}
	return clean, end, false, nil
}

// TruncateBelow removes sealed segment files with index < cut. The active
// segment is never removed. Returns the number of files deleted.
func (l *Log) TruncateBelow(cut uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if cut > l.seg {
		cut = l.seg
	}
	removed := 0
	for seg := l.firstSeg; seg < cut; seg++ {
		if err := fsys.OS.Remove(segPath(l.opts.Dir, seg)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return removed, err
		}
		l.firstSeg = seg + 1
		removed++
	}
	l.truncated.Add(int64(removed))
	return removed, nil
}

// Stats returns a snapshot of counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	live := int64(l.seg - l.firstSeg + 1)
	l.mu.Unlock()
	return Stats{
		Appends:           l.appends.Load(),
		Syncs:             l.syncs.Load(),
		Rotations:         l.rotations.Load(),
		BytesWritten:      l.bytes.Load(),
		Segments:          live,
		TruncatedSegments: l.truncated.Load(),
		TornBytes:         l.torn.Load(),
	}
}

// Close flushes, fsyncs, and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	stop := l.stopPeriodic != nil && !l.periodicStopped
	if stop {
		l.periodicStopped = true
	}
	l.mu.Unlock()
	if stop {
		close(l.stopPeriodic)
		<-l.donePeriodic
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.w.flush()
	if err == nil && !l.opts.NoSync {
		err = l.f.Sync()
	}
	cerr := l.f.Close()
	if err == nil {
		err = cerr
	}
	l.closed = true
	seq := l.appendSeq
	l.mu.Unlock()
	l.sm.Lock()
	l.settle(seq, err)
	l.sm.Unlock()
	return err
}
