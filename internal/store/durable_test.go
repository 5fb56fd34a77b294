package store

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func durableCfg(dir string) Config {
	return Config{
		Nodes: 3, RF: 2, VNodes: 16,
		FlushThreshold:  32,
		Dir:             dir,
		CompactInterval: -1, // deterministic tests drive compaction manually
	}
}

func durableRow(i int64, extra ...Col) Row {
	cols := append([]Col{C("count", fmt.Sprint(i)), C("msg", "event payload")}, extra...)
	return MakeRow(EncodeTS(1000+i)+fmt.Sprintf(":n%04d", i), 0, cols)
}

func fillDurable(t *testing.T, db *DB, table string, parts, perPart int) {
	t.Helper()
	if err := db.CreateTable(table); err != nil {
		t.Fatal(err)
	}
	// Small batches so memtables cross the flush threshold repeatedly and
	// multiple disk segments accumulate per partition.
	const batch = 20
	for p := 0; p < parts; p++ {
		pkey := fmt.Sprintf("part-%02d", p)
		for off := 0; off < perPart; off += batch {
			var rows []Row
			for i := off; i < off+batch && i < perPart; i++ {
				rows = append(rows, durableRow(int64(p*perPart+i)))
			}
			if err := db.PutBatch(table, pkey, rows, Quorum); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func readAll(t *testing.T, db *DB, table string) map[string][]Row {
	t.Helper()
	out := make(map[string][]Row)
	for _, pkey := range partitionKeys(t, db, table) {
		rows, err := db.Get(table, pkey, Range{}, Quorum)
		if err != nil {
			t.Fatal(err)
		}
		out[pkey] = rows
	}
	return out
}

func TestDurableReopenPreservesData(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	fillDurable(t, db, "events", 4, 100)
	want := readAll(t, db, "events")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Tables(); len(got) != 1 || got[0] != "events" {
		t.Fatalf("tables after reopen: %v", got)
	}
	got := readAll(t, db2, "events")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen mismatch: %d partitions vs %d", len(got), len(want))
	}
	st := db2.StorageStats()
	if st.Dir != dir || st.ReplayedRecords == 0 {
		t.Fatalf("expected replayed records, stats %+v", st)
	}
}

// TestDurableWriteTSResumes ensures post-restart writes keep winning
// last-write-wins against recovered rows.
func TestDurableWriteTSResumes(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	row := durableRow(1, C("v", "before"))
	if err := db.Put("t", "p", row, All); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row2 := durableRow(1, C("v", "after"))
	if err := db2.Put("t", "p", row2, All); err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Get("t", "p", Range{}, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Col("v") != "after" {
		t.Fatalf("post-restart write lost LWW: %+v", rows)
	}
}

// TestDurableScanMatchesGet drives enough rows through one partition to
// force disk flushes, then checks the streaming scan (disk segments +
// memtable merge) against the materialized read, and both against an
// identically loaded cluster that holds everything in its memtables.
func TestDurableScanMatchesGet(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	ddb, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ddb.Close()
	memCfg := cfg
	memCfg.FlushThreshold = 1 << 30
	mdb := openTest(t, memCfg)

	for _, db := range []*DB{ddb, mdb} {
		if err := db.CreateTable("events"); err != nil {
			t.Fatal(err)
		}
		// Several batches with overwraps so LWW matters; WriteTS set
		// explicitly so both clusters stamp identically.
		ts := int64(0)
		for b := 0; b < 10; b++ {
			var rows []Row
			for i := 0; i < 50; i++ {
				ts++
				r := durableRow(int64((b*37+i)%120), C("batch", fmt.Sprint(b)))
				r.WriteTS = ts
				rows = append(rows, r)
			}
			if err := db.PutBatch("events", "p", rows, All); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Durable cluster must actually have flushed to disk.
	if ddb.StorageStats().DiskSegments == 0 {
		t.Fatal("expected on-disk segments (FlushThreshold 32, 500 rows)")
	}
	if n := mdb.StorageStats().DiskSegments; n != 0 {
		t.Fatalf("the memtable-resident reference wrote %d segments", n)
	}

	ranges := []Range{
		{},
		{From: EncodeTS(1010)},
		{To: EncodeTS(1060)},
		{From: EncodeTS(1020), To: EncodeTS(1080)},
	}
	for _, rg := range ranges {
		want, err := mdb.Get("events", "p", rg, All)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ddb.Get("events", "p", rg, All)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("durable Get(%+v) differs from the memtables: %d vs %d rows", rg, len(got), len(want))
		}
		it, err := ddb.ScanPartitionPruned("events", "p", rg, One, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Row
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			streamed = append(streamed, r)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		// Compare logical content against the Get result.
		if !sameRows(streamed, want) {
			t.Fatalf("durable scan(%+v) differs: %d vs %d rows", rg, len(streamed), len(want))
		}
	}
}

func TestDurableCompactAndWALTruncation(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.FlushThreshold = 16
	cfg.WALSegmentBytes = 4 << 10 // force commitlog rotations
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillDurable(t, db, "events", 2, 400)
	want := readAll(t, db, "events")

	st := db.StorageStats()
	if st.WALRotations == 0 {
		t.Fatalf("expected commitlog rotations, stats %+v", st)
	}
	compacted, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted == 0 {
		t.Fatal("expected compaction work (FlushThreshold 16, 400 rows/partition)")
	}
	st2 := db.StorageStats()
	if st2.Compactions == 0 || st2.WALTruncatedSegments == 0 {
		t.Fatalf("expected compactions + truncated commitlog segments, stats %+v", st2)
	}
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed query results")
	}
	db.Close()
	db2, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := readAll(t, db2, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("reopen after compaction changed query results")
	}
}

func TestDurableBackgroundCompactor(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.FlushThreshold = 8
	cfg.MaxSegments = 2
	cfg.CompactInterval = 5 * time.Millisecond
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 1, 200)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if db.StorageStats().Compactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never ran; stats %+v", db.StorageStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rows, err := db.Get("events", "part-00", Range{}, Quorum)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows after background compaction = %d, want 200", len(rows))
	}
}

// TestDurableEmptyTableSurvivesCheckpoint guards the tables manifest: a
// table with no rows has no segment footers, and its create-table
// commitlog record is truncated away by a checkpoint — the manifest must
// carry it across the restart anyway.
func TestDurableEmptyTableSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("empty_table"); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // checkpoint truncates the commitlog
		t.Fatal(err)
	}
	db.Close()
	db2, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.HasTable("empty_table") {
		t.Fatal("empty table lost across checkpoint + restart")
	}
	if err := db2.Put("empty_table", "p", durableRow(1), Quorum); err != nil {
		t.Fatalf("write to recovered empty table: %v", err)
	}
}

// TestDirtySegTracksMinimum pins the commitlog-truncation ordering
// invariant: a WAL rotation between two concurrent appends can hand the
// writer of the OLDER segment the partition lock second, so dirtySeg must
// track the minimum segment over the memtable's records, never a later
// one. Regressing this lets truncateWAL delete a segment whose acked rows
// exist only in the memtable.
func TestDirtySegTracksMinimum(t *testing.T) {
	n := newNode("n1", 1<<30)
	p := &partition{node: n, table: "t", key: "k"}
	if err := p.put([]Row{{Key: "b"}}, 7); err != nil {
		t.Fatal(err)
	}
	if !p.hasDirty || p.dirtySeg != 7 {
		t.Fatalf("dirtySeg = %d (hasDirty=%v), want 7", p.dirtySeg, p.hasDirty)
	}
	// The late-arriving writer whose record landed in the older segment.
	if err := p.put([]Row{{Key: "a"}}, 5); err != nil {
		t.Fatal(err)
	}
	if p.dirtySeg != 5 {
		t.Fatalf("dirtySeg = %d after older-segment put, want 5", p.dirtySeg)
	}
	// A newer segment must never raise the floor while rows are dirty.
	if err := p.put([]Row{{Key: "c"}}, 9); err != nil {
		t.Fatal(err)
	}
	if p.dirtySeg != 5 {
		t.Fatalf("dirtySeg = %d after newer-segment put, want 5", p.dirtySeg)
	}
}
