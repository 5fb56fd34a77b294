package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/testutil"
)

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if _, err := l.Replay(func(_ LSN, p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%37))))
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	payload := make([]byte, 64)
	var lastLSN LSN
	for i := 0; i < 40; i++ {
		lsn, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatalf("expected rotations with 256-byte segments, got stats %+v", st)
	}
	if lastLSN.Seg < 2 {
		t.Fatalf("expected multi-segment log, last LSN %+v", lastLSN)
	}
	// Truncating below the active segment keeps the tail replayable.
	removed, err := l.TruncateBelow(lastLSN.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected at least one truncated segment")
	}
	got := collect(t, l)
	for _, p := range got {
		if len(p) != len(payload) {
			t.Fatalf("bad replayed record length %d", len(p))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and confirm the survivors replay.
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got2 := collect(t, l2); len(got2) != len(got) {
		t.Fatalf("replay after reopen %d records, want %d", len(got2), len(got))
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial frame at the tail.
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x20, 0, 0, 0, 0xde, 0xad} // claims 32-byte payload, cut off
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	if got := l2.Stats().TornBytes; got != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", got, len(torn))
	}
	got := collect(t, l2)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	// The log must be appendable after tail repair, and the new record
	// must land exactly after the last clean one.
	if _, err := l2.Append([]byte("after-torn")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := mustOpen(t, Options{Dir: dir})
	defer l3.Close()
	got = collect(t, l3)
	if len(got) != 11 || string(got[10]) != "after-torn" {
		t.Fatalf("after repair replayed %d records (last %q), want 11 ending in after-torn",
			len(got), got[len(got)-1])
	}
}

func TestCorruptTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte inside the LAST record's payload: CRC catches it and the
	// tail from that record on is discarded.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4 (corrupt last record dropped)", len(got))
	}
	if l2.Stats().TornBytes == 0 {
		t.Fatal("expected TornBytes > 0 after corruption")
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 4096})
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("appends = %d, want %d", st.Appends, goroutines*perG)
	}
	if st.Syncs >= st.Appends {
		t.Logf("no sync batching observed (syncs=%d appends=%d) — acceptable but unusual", st.Syncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := collect(t, l2); len(got) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*perG)
	}
}

func TestPeriodicSyncMode(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SyncPeriod: time.Millisecond})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("periodic")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := collect(t, l2); len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
}

// TestPeriodicSyncSkipsIdleTicks: the periodic ticker fsyncs only when
// something was appended since the last sync — a read-only store must not
// spend a disk flush every period — and an append is still made durable
// by the next tick.
func TestPeriodicSyncSkipsIdleTicks(t *testing.T) {
	const period = time.Millisecond
	l := mustOpen(t, Options{Dir: t.TempDir(), SyncPeriod: period})
	defer l.Close()
	time.Sleep(50 * period)
	if n := l.Stats().Syncs; n != 0 {
		t.Fatalf("idle log synced %d times in 50 periods, want 0", n)
	}
	if _, err := l.Append([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !l.synced() {
		if time.Now().After(deadline) {
			t.Fatal("append never synced by the periodic ticker")
		}
		time.Sleep(period)
	}
	if n, h := l.Stats().Syncs, l.FsyncHist().Count(); n != 1 || h != 1 {
		t.Fatalf("one append: %d syncs, %d fsync latencies recorded, want 1 and 1", n, h)
	}
	time.Sleep(50 * period)
	if n := l.Stats().Syncs; n != 1 {
		t.Fatalf("log synced %d times, want 1: idle ticks after the sync must be skipped again", n)
	}
}

func TestTornHeaderRewritten(t *testing.T) {
	dir := t.TempDir()
	// A crash during segment creation can leave a short header.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), []byte("HPW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if _, err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 1 || string(got[0]) != "fresh" {
		t.Fatalf("unexpected replay %q", got)
	}
}

func TestMidSegmentCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte inside the FIRST record's payload: valid frames follow,
	// so this is corruption, not a torn tail — truncating would silently
	// drop four fsync-acknowledged records. Open must fail instead.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+frameLen] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, err := Open(Options{Dir: dir}); err == nil {
		l2.Close()
		t.Fatal("Open succeeded on mid-segment corruption, want ErrCorrupt")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open error = %v, want ErrCorrupt", err)
	}
}

// TestDamagedHeaderRefusesOpen: the segment header is judged like a frame.
// A flipped magic byte with valid records after it is corruption, not a
// torn header: recreating the segment would drop every acked record in it.
func TestDamagedHeaderRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, err := Open(Options{Dir: dir}); err == nil {
		got := collect(t, l2)
		l2.Close()
		t.Fatalf("Open succeeded on a damaged header (replayed %d of 5 records), want ErrCorrupt", len(got))
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open error = %v, want ErrCorrupt", err)
	}
	// The escape hatch cuts the whole segment, as for a torn header.
	l3 := mustOpen(t, Options{Dir: dir, TolerateCorruptTail: true})
	defer l3.Close()
	if got := l3.Stats().TornBytes; got != int64(len(data)) {
		t.Fatalf("TornBytes = %d, want the whole file, %d", got, len(data))
	}
	if got := collect(t, l3); len(got) != 0 {
		t.Fatalf("replayed %d records from a cut segment, want 0", len(got))
	}
}

func TestZeroFilledTornTailStillRepaired(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate ext4-style delayed allocation after a crash: the torn
	// record's frame made it out but its payload pages read back as zeros,
	// followed by more zero-filled space. crc32(empty)==0, so an all-zero
	// frame must NOT count as a "valid frame after the damage" — this is a
	// torn tail, and Open must repair it, not refuse with ErrCorrupt.
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, frameLen+4+24)
	tail[0] = 4 // plen=4, bogus crc, zero payload, then zero fill
	tail[4], tail[5], tail[6], tail[7] = 0xde, 0xad, 0xbe, 0xef
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := l2.Stats().TornBytes; got != int64(len(tail)) {
		t.Fatalf("TornBytes = %d, want %d", got, len(tail))
	}
	if got := collect(t, l2); len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
}

func TestMultiRecordCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Damage the payloads of records 0 AND 1 (length fields intact):
	// the recovery walk must chain past the second bad frame to the valid ones
	// behind it instead of misreading the pair as a torn tail.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec0 := headerLen + frameLen
	rec1 := rec0 + len("rec-0") + frameLen
	data[rec0] ^= 0xff
	data[rec1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, err := Open(Options{Dir: dir}); err == nil {
		l2.Close()
		t.Fatal("Open succeeded with two corrupt records before valid ones, want ErrCorrupt")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open error = %v, want ErrCorrupt", err)
	}
	// The explicit escape hatch trades the records after the damage for a
	// log that opens: records 0..5 are gone, the log is empty but usable.
	l3, err := Open(Options{Dir: dir, TolerateCorruptTail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := collect(t, l3); len(got) != 0 {
		t.Fatalf("replayed %d records after tolerated truncation, want 0", len(got))
	}
	if l3.Stats().TornBytes == 0 {
		t.Fatal("expected TornBytes > 0 after tolerated truncation")
	}
	if _, err := l3.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestZeroExtendedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Power loss can extend the file with zero-filled pages starting
	// exactly at a record boundary. crc32 of an empty payload is 0, so an
	// all-zero frame self-validates as an empty record — which Append never
	// writes and the store cannot decode. Open must truncate the zeros as a
	// torn tail, not replay them.
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 32)
	if _, err := f.Write(zeros); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := l2.Stats().TornBytes; got != int64(len(zeros)) {
		t.Fatalf("TornBytes = %d, want %d", got, len(zeros))
	}
	got := collect(t, l2)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (zero tail must not become records)", len(got))
	}
	for _, p := range got {
		if len(p) == 0 {
			t.Fatal("replayed an empty record from the zero-filled tail")
		}
	}
}

func TestAppendEmptyRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded; empty records are indistinguishable from a zero-filled torn tail")
	}
}

func TestSealedSegmentDamageToleratedOnReplay(t *testing.T) {
	dir := t.TempDir()
	// NoSync rotation seals segments without fsync, so power loss can tear
	// or zero-fill a SEALED segment — which Open's tail scan (newest
	// segment only) never sees.
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, NoSync: true})
	payload := make([]byte, 60)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	var lastSeg uint64
	for i := 0; i < 12; i++ {
		lsn, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		lastSeg = lsn.Seg
	}
	l.Close()
	if lastSeg < 2 {
		t.Fatalf("expected multiple segments, got %d", lastSeg)
	}
	// Zero-fill the tail of sealed segment 1 from mid-record on.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data); i++ {
		data[i] = 0
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Default: replay must fail loudly with a corruption error, not a
	// misleading decode error from a self-validating all-zero frame.
	l2 := mustOpen(t, Options{Dir: dir})
	_, err = l2.Replay(func(LSN, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay error = %v, want ErrCorrupt", err)
	}
	l2.Close()
	// Escape hatch: skip the damaged remainder of segment 1, keep later
	// segments (LWW write timestamps make replay order safe).
	l3 := mustOpen(t, Options{Dir: dir, TolerateCorruptTail: true})
	defer l3.Close()
	var got int
	if _, err := l3.Replay(func(_ LSN, p []byte) error {
		if len(p) != len(payload) {
			t.Fatalf("replayed record of length %d", len(p))
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got == 0 || got >= 12 {
		t.Fatalf("replayed %d records, want a partial set (segment 1 tail skipped, later segments kept)", got)
	}
	if l3.Stats().TornBytes == 0 {
		t.Fatal("expected TornBytes > 0 for the skipped sealed-segment damage")
	}
}

// checkLatched asserts that the log answers every Append and Rotate with
// the fault that poisoned it, though the disk is healthy again.
func checkLatched(t *testing.T, l *Log, fault error) {
	t.Helper()
	if _, err := l.Append([]byte("after the fault")); !errors.Is(err, fault) {
		t.Fatalf("Append after the fault: %v, want %v", err, fault)
	}
	if err := l.Rotate(); !errors.Is(err, fault) {
		t.Fatalf("Rotate after the fault: %v, want %v", err, fault)
	}
}

// TestFaultSyncLatches: a failed fsync of the active segment fails the
// Append waiting on it and poisons the log. A reopen replays exactly the
// records acked before the fault once the unsynced pages are lost.
func TestFaultSyncLatches(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	var acked [][]byte
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf("acked-%d", i))
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, p)
	}
	st, err := os.Stat(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	fault := errors.New("injected fsync failure")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "sync" && op.Path == segPath(dir, 1) {
			return fault
		}
		return nil
	})
	if _, err := l.Append([]byte("never acked")); !errors.Is(err, fault) {
		t.Fatalf("Append under a failing fsync: %v, want %v", err, fault)
	}
	rec.Fail(nil)
	checkLatched(t, l, fault)
	l.Close()
	// A failed fsync may drop the dirty pages it was to write.
	if err := os.Truncate(segPath(dir, 1), st.Size()); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := collect(t, l2); !reflect.DeepEqual(got, acked) {
		t.Fatalf("reopen replayed %q, want the acked %q", got, acked)
	}
}

// TestFaultRotationDirSyncLatches: a rotation whose directory fsync fails
// poisons the log the same way; a reopen replays every acked record.
func TestFaultRotationDirSyncLatches(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	fault := errors.New("injected directory fsync failure")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "syncdir" && op.Path == dir {
			return fault
		}
		return nil
	})
	var acked [][]byte
	var err error
	for i := 0; err == nil && i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%048d", i, i))
		if _, err = l.Append(p); err == nil {
			acked = append(acked, p)
		}
	}
	if !errors.Is(err, fault) || len(acked) == 0 {
		t.Fatalf("%d appends, then %v; want the rotation's injected fault", len(acked), err)
	}
	rec.Fail(nil)
	checkLatched(t, l, fault)
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	// The record whose Append failed was sealed by the rotation before its
	// new segment failed; it may replay, after every acked one.
	if got := collect(t, l2); len(got) < len(acked) || len(got) > len(acked)+1 || !reflect.DeepEqual(got[:len(acked)], acked) {
		t.Fatalf("reopen replayed %d records, want the %d acked first", len(got), len(acked))
	}
}

// TestFaultTornTailTruncate: the cut of a torn tail at open fails. Open
// fails with the fault and leaves the segment as it was; the next clean
// open drops exactly the torn bytes and keeps every acked record.
func TestFaultTornTailTruncate(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	var acked [][]byte
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf("acked-%d", i))
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, p)
	}
	l.Close()
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x20, 0, 0, 0, 0xde, 0xad} // claims 32-byte payload, cut off
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	fault := errors.New("injected truncate failure")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "truncate" && op.Path == path {
			return fault
		}
		return nil
	})
	if l, err := Open(Options{Dir: dir}); !errors.Is(err, fault) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open under a failing truncate: %v, want %v", err, fault)
	}
	rec.Fail(nil)
	if now, err := os.Stat(path); err != nil || now.Size() != st.Size() {
		t.Fatalf("the failed open changed the segment: %v", err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if got := l2.Stats().TornBytes; got != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", got, len(torn))
	}
	if now, err := os.Stat(path); err != nil || now.Size() != st.Size()-int64(len(torn)) {
		t.Fatalf("the clean open did not cut the segment to %d bytes (%v)", st.Size()-int64(len(torn)), err)
	}
	if got := collect(t, l2); !reflect.DeepEqual(got, acked) {
		t.Fatalf("reopen replayed %q, want the acked %q", got, acked)
	}
}

// TestRotateSyncsOnlyWhatIsNotDurable: sealing a segment whose every
// append was acknowledged in batch mode takes no fsync. Sealing one Open
// reopened takes one: neither its records nor the cut of its torn tail
// were synced by this log, and a crash must not bring the tail back in a
// segment that is sealed by then.
func TestRotateSyncsOnlyWhatIsNotDurable(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seals := func(seg uint64, rotate func() error) int {
		t.Helper()
		before := rec.Count("sync", filepath.Base(segPath(dir, seg)))
		if err := rotate(); err != nil {
			t.Fatal(err)
		}
		return rec.Count("sync", filepath.Base(segPath(dir, seg))) - before
	}
	if n := seals(1, l.Rotate); n != 0 {
		t.Fatalf("sealing acknowledged appends took %d fsyncs, want 0", n)
	}
	if _, err := l.Append([]byte("record-3")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segPath(dir, 2), os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write([]byte{9, 0, 0, 0, 1, 2}) // a frame cut short
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if n := seals(2, l.Rotate); n != 1 {
		t.Fatalf("sealing a reopened segment took %d fsyncs, want 1", n)
	}
	if got := collect(t, l); len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
}

// FuzzCommitlogRecovery damages a two-segment log of acked records with a
// byte flip, a truncation or a zero fill at a point of its segments laid
// end to end (a truncation drops the segments after the cut), then runs
// Open and Replay with and without TolerateCorruptTail. Neither panics.
// What replays is, in order, a prefix of what was appended; under
// TolerateCorruptTail, which skips a sealed segment's damaged remainder
// and goes on, a prefix of each segment's records. Every record lying
// wholly before the first damaged byte replays, or, without
// TolerateCorruptTail only, the run fails with ErrCorrupt.
func FuzzCommitlogRecovery(f *testing.F) {
	type record struct {
		lsn     LSN
		payload []byte
	}
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	var recs []record
	index := map[LSN]int{}
	for i := 0; i < 12; i++ {
		p := []byte(fmt.Sprintf("record-%02d-%014d", i, i))
		lsn, err := l.Append(p)
		if err != nil {
			f.Fatal(err)
		}
		index[lsn] = len(recs)
		recs = append(recs, record{lsn, p})
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	if last := recs[len(recs)-1].lsn.Seg; last != 2 || recs[0].lsn.Seg != 1 {
		f.Fatalf("records span segments 1..%d, want 1..2", last)
	}
	var image []byte
	var segStart [3]int
	for seg := 1; seg <= 2; seg++ {
		data, err := os.ReadFile(segPath(dir, uint64(seg)))
		if err != nil {
			f.Fatal(err)
		}
		segStart[seg] = len(image)
		image = append(image, data...)
	}
	len1, total := segStart[2], len(image)
	// testutil.Damage's faults, by op.
	const flip, truncate, zero = 0, 1, 2
	f.Add(uint8(flip), uint16(0), uint8(0))                             // sealed segment's magic
	f.Add(uint8(flip), uint16(len1), uint8(0))                          // newest segment's magic
	f.Add(uint8(flip), uint16(len1+headerLen-1), uint8(0))              // newest segment's index
	f.Add(uint8(flip), uint16(headerLen+frameLen), uint8(7))            // sealed record 0's payload
	f.Add(uint8(flip), uint16(len1+headerLen+32+frameLen), uint8(0x40)) // newest record 1's payload
	f.Add(uint8(flip), uint16(len1+headerLen+64), uint8(1))             // newest record 2's length
	f.Add(uint8(flip), uint16(total-1), uint8(0))                       // the last byte
	f.Add(uint8(truncate), uint16(100), uint8(0))                       // inside the sealed segment
	f.Add(uint8(truncate), uint16(len1+60), uint8(0))                   // inside the newest segment
	f.Add(uint8(zero), uint16(headerLen+96), uint8(255))                // sealed records 3 on
	f.Add(uint8(zero), uint16(len1+3), uint8(20))                       // newest header into record 0
	f.Add(uint8(zero), uint16(total-32), uint8(31))                     // the newest record
	f.Fuzz(func(t *testing.T, op uint8, pos uint16, n uint8) {
		damaged, first := testutil.Damage(image, op, pos, n)
		before := 0
		for before < len(recs) {
			r := recs[before]
			if segStart[r.lsn.Seg]+int(r.lsn.Off)+frameLen+len(r.payload) > first {
				break
			}
			before++
		}
		for _, tolerate := range []bool{false, true} {
			d := t.TempDir()
			if err := os.WriteFile(segPath(d, 1), damaged[:min(len(damaged), len1)], 0o644); err != nil {
				t.Fatal(err)
			}
			if len(damaged) > len1 {
				if err := os.WriteFile(segPath(d, 2), damaged[len1:], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var got []record
			l, err := Open(Options{Dir: d, NoSync: true, TolerateCorruptTail: tolerate})
			if err == nil {
				_, err = l.Replay(func(lsn LSN, p []byte) error {
					got = append(got, record{lsn, append([]byte(nil), p...)})
					return nil
				})
				l.Close()
			}
			if err != nil && (tolerate || !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("tolerate=%v: recovery failed: %v", tolerate, err)
			}
			seen := make([]bool, len(recs))
			prev := -1
			for i, r := range got {
				j, ok := index[r.lsn]
				if !ok || !bytes.Equal(r.payload, recs[j].payload) {
					t.Fatalf("tolerate=%v: replayed %q at %+v, which was never appended there", tolerate, r.payload, r.lsn)
				}
				inSeg := j > 0 && recs[j-1].lsn.Seg == r.lsn.Seg
				if j <= prev || (!tolerate && j != i) || (inSeg && prev != j-1) {
					t.Fatalf("tolerate=%v: replayed record %d after record %d: not a prefix", tolerate, j, prev)
				}
				seen[j], prev = true, j
			}
			if err == nil {
				for i := 0; i < before; i++ {
					if !seen[i] {
						t.Fatalf("tolerate=%v: record %d lies wholly before the first damaged byte %d but did not replay (%d replayed)",
							tolerate, i, first, len(got))
					}
				}
			}
		}
	})
}
