package store

// Crash-recovery harness: acked writes must survive a kill -9 or a power
// loss at any point, and a write torn mid-record by the crash must be
// cleanly ignored on replay.
//
// A "crash" is simulated two ways:
//   - crash states: the recording file system (fsystest) records the run
//     and, after it, builds the state a crash at any operation boundary
//     leaves: kill -9 (every effect so far), power loss (only what was
//     fsynced) and torn states between them. Each is written to a fresh
//     directory and reopened. Because every PutBatch ack implies a
//     group-commit fsync, every state must contain every acked batch.
//     Round and sweep tests take theirs at the operation that ends a
//     stage (captureRounds, sweepImages).
//   - torn tail: a partial commitlog frame is appended to the newest WAL
//     segment of the commitlog, simulating records that were mid-append when
//     the process died. Recovery must drop exactly the torn bytes.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hpclog/internal/fsys/fsystest"
)

func crashCfg(dir string) Config {
	return Config{
		Nodes: 2, RF: 2, VNodes: 8,
		FlushThreshold:  25, // flush mid-run so recovery mixes segments + replay
		Dir:             dir,
		CompactInterval: -1,
	}
}

// TestCrashRecoveryAckedBatches recovers from crash states of an ingest
// run: the kill -9 state after several acks, and the power-loss and torn
// states at every operation boundary. Every batch acked before the crash
// survives, and a batch in flight is there whole or not at all.
func TestCrashRecoveryAckedBatches(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	db, err := OpenDurable(crashCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}

	const batches = 40
	const rowsPerBatch = 7
	key := func(b, i int) string { return EncodeTS(int64(5000+b*rowsPerBatch+i)) + ":src" }
	var acks []int // the boundary after each batch's ack
	for b := 0; b < batches; b++ {
		var rows []Row
		for i := 0; i < rowsPerBatch; i++ {
			rows = append(rows, MapRow(key(b, i), 0, map[string]string{"batch": fmt.Sprint(b), "i": fmt.Sprint(i)}))
		}
		pkey := fmt.Sprintf("part-%d", b%3)
		if err := db.PutBatch("events", pkey, rows, All); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, len(rec.Ops()))
	}
	acked := func(at int) (n int) {
		for n < len(acks) && acks[n] <= at {
			n++
		}
		return n
	}

	check := func(s fsystest.State) {
		t.Helper()
		name := fmt.Sprintf("%s state@%d batches", s.Kind, acked(s.At))
		rdb, err := OpenDurable(crashCfg(s.Write(t)[0]))
		if err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		defer rdb.Close()
		got := make(map[string]Row)
		for _, pkey := range partitionKeys(t, rdb, "events") {
			rows, err := rdb.Get("events", pkey, Range{}, All)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				got[r.Key] = r
			}
		}
		seen := 0
		for b := 0; b < batches; b++ {
			n := 0
			for i := 0; i < rowsPerBatch; i++ {
				r, ok := got[key(b, i)]
				if !ok {
					continue
				}
				if n++; r.Col("batch") != fmt.Sprint(b) {
					t.Fatalf("%s: row %s has wrong content %+v", name, key(b, i), r.ColumnsMap())
				}
			}
			if b < acked(s.At) && n != rowsPerBatch {
				t.Fatalf("%s lost %d acked rows of batch %d", name, rowsPerBatch-n, b)
			}
			if n != 0 && n != rowsPerBatch {
				t.Fatalf("%s holds %d of the %d rows of batch %d", name, n, rowsPerBatch, b)
			}
			seen += n
		}
		if len(got) != seen {
			t.Fatalf("%s holds %d rows no batch wrote", name, len(got)-seen)
		}
	}
	// kill -9 right after the first ack, at irregular points, and right
	// after the last.
	for _, b := range []int{0, 7, 23, batches - 1} {
		check(rec.States(acks[b], 0, dir)[0])
	}
	// Power loss: a state at a later boundary has at least the acks of an
	// earlier one of the same bytes, so each is checked at its last.
	var states []fsystest.State
	for at := acks[len(acks)-1]; at >= 0; at-- {
		states = append(states, rec.States(at, tornStates, dir)[1:]...)
	}
	for _, s := range fsystest.Distinct(states) {
		check(s)
	}
}

// TestOwnRoundBatchCrashStates recovers from the crash states at every
// operation boundary of a PutBatch at the flush threshold, which each
// replica writes as a round of its own instead of logging it: the kill -9,
// power-loss and torn states. The batch never touches a commitlog; once
// acked it is there whole, one version per key, the newest; before, it is
// there whole or not at all, and the rows acked before it are there.
func TestOwnRoundBatchCrashStates(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	cfg := crashCfg(dir)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 2, 10) // acked, logged, in memtables
	before := readAll(t, db, "events")
	appends := db.StorageStats().WALAppends

	// FlushThreshold rows, out of order, with two versions of one key:
	// the later one is stamped later and must win.
	batch := make([]Row, cfg.FlushThreshold)
	for i := range batch {
		batch[i] = durableRow(int64(2000 + (i*7)%(len(batch)-1)))
	}
	batch[len(batch)-1] = durableRow(2000, C("version", "newer"))
	from := len(rec.Ops())
	if err := db.PutBatch("events", "part-00", batch, All); err != nil {
		t.Fatal(err)
	}
	acked := len(rec.Ops())
	after := readAll(t, db, "events")
	if n := len(after["part-00"]) - len(before["part-00"]); n != len(batch)-1 {
		t.Fatalf("the batch added %d rows, want %d", n, len(batch)-1)
	}
	if got := after["part-00"][len(before["part-00"])]; got.Col("version") != "newer" {
		t.Fatalf("the batch's duplicate key kept %v, want the newer version", got.ColumnsMap())
	}
	if n := db.StorageStats().WALAppends - appends; n != 0 {
		t.Fatalf("the batch appended %d commitlog records", n)
	}
	for _, op := range rec.Ops()[from:acked] {
		if strings.Contains(op.Path, string(filepath.Separator)+"wal"+string(filepath.Separator)) {
			t.Fatalf("the batch's round did %s %s", op.Kind, op.Path)
		}
	}

	// A state at a later boundary holds at least what an earlier one of the
	// same bytes does, so each is checked at its last.
	var states []fsystest.State
	for at := acked; at >= from; at-- {
		states = append(states, rec.States(at, tornStates, dir)...)
	}
	for _, s := range fsystest.Distinct(states) {
		name := fmt.Sprintf("%s state at %d (acked at %d)", s.Kind, s.At, acked)
		rcfg := cfg
		rcfg.Dir = s.Write(t)[0]
		rdb, err := OpenDurable(rcfg)
		if err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		got := readAll(t, rdb, "events")
		rdb.Close()
		switch {
		case reflect.DeepEqual(got, after):
		case s.At >= acked:
			t.Fatalf("%s lost rows of the acked batch", name)
		case !reflect.DeepEqual(got, before):
			t.Fatalf("%s holds part of the batch, or lost rows acked before it", name)
		}
	}
}

// newestWALSegment returns the path of the highest-numbered commitlog
// segment under a store directory.
func newestWALSegment(t *testing.T, dir string) string {
	t.Helper()
	walDir := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no wal segments under %s", walDir)
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}

// TestCrashRecoveryTornWrite hard-cuts the commitlog mid-record and
// asserts recovery keeps every acked batch while ignoring the torn tail.
func TestCrashRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillDurable(t, db, "events", 2, 90)
	want := readAll(t, db, "events")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the commitlog's tail two ways, one after the other: first a
	// partial frame (record cut mid-write), then, after a recovery and a
	// write, a frame whose payload is cut short. Both are what kill -9
	// during an append leaves behind.
	tails := [][]byte{
		{0x40, 0, 0, 0}, // half a frame header
		{0x40, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 'p', 'a', 'r'}, // frame + cut payload
	}
	var extra Row
	for i, tail := range tails {
		seg := newestWALSegment(t, dir)
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		rdb, err := OpenDurable(cfg)
		if err != nil {
			t.Fatalf("recovery after torn write %d: %v", i, err)
		}
		st := rdb.StorageStats()
		if st.TornBytes != int64(len(tail)) {
			t.Fatalf("tear %d: TornBytes = %d, want %d", i, st.TornBytes, len(tail))
		}
		got := readAll(t, rdb, "events")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tear %d: torn-tail recovery lost data: %d partitions vs %d", i, len(got), len(want))
		}
		// The repaired log must accept and persist new writes.
		extra = durableRow(9999 + int64(i))
		if err := rdb.Put("events", "part-00", extra, All); err != nil {
			t.Fatal(err)
		}
		want = readAll(t, rdb, "events")
		if err := rdb.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rdb2, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb2.Close()
	rows, err := rdb2.Get("events", "part-00", Range{From: extra.Key}, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != extra.Key {
		t.Fatalf("write after torn-tail repair did not survive reopen: %+v", rows)
	}
}

// TestTolerateCorruptTailReachable pins the operator escape hatch: a
// durable cluster whose newest commitlog segment has mid-segment damage
// (bad record followed by valid ones) refuses to open by default, and
// Config.WALTolerateCorruptTail must reach wal.Options so the same
// directory can be reopened with the tail truncated at the damage.
func TestTolerateCorruptTailReachable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	fillDurable(t, db, "events", 2, 8)
	db.Close()
	// Flip a payload byte in the first record of every commitlog segment
	// that holds records (header 16 + frame 8).
	damaged := 0
	walFiles, err := filepath.Glob(filepath.Join(dir, "wal", "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walFiles {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 16+8+8 {
			continue
		}
		data[16+8] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no WAL segment with records to damage")
	}
	if db2, err := OpenDurable(durableCfg(dir)); err == nil {
		db2.Close()
		t.Fatal("OpenDurable succeeded on mid-segment WAL corruption, want refusal")
	}
	cfg := durableCfg(dir)
	cfg.WALTolerateCorruptTail = true
	db3, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("OpenDurable with WALTolerateCorruptTail: %v", err)
	}
	defer db3.Close()
	if st := db3.StorageStats(); st.TornBytes == 0 {
		t.Fatal("expected TornBytes > 0 after tolerated truncation")
	}
}
