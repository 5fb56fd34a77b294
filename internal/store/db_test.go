package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// openTest opens cfg under a fresh test directory with the commitlog
// unsynced, and closes it when the test ends.
func openTest(t testing.TB, cfg Config) *DB {
	t.Helper()
	cfg.Dir, cfg.WALNoSync = t.TempDir(), true
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func testDB(t testing.TB, nodes, rf int) *DB {
	t.Helper()
	db := openTest(t, Config{Nodes: nodes, RF: rf, VNodes: 32, FlushThreshold: 64, MaxSegments: 3})
	db.CreateTable("events")
	return db
}

// partitionKeys is DB.PartitionKeys with a failure fatal to the test.
func partitionKeys(t testing.TB, db *DB, table string) []string {
	t.Helper()
	keys, err := db.PartitionKeys(context.Background(), table)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func eventRow(ts int64, disc, typ, loc string) Row {
	return MapRow(EncodeTS(ts)+":"+disc, 0, map[string]string{"type": typ, "source": loc, "amount": "1"})
}

// TestOpenRequiresDir: there is one storage engine and it lives in a
// directory, so a store without one does not open.
func TestOpenRequiresDir(t *testing.T) {
	for _, cfg := range []Config{{}, {Nodes: 2, RF: 1, WALNoSync: true, CompactInterval: -1}} {
		if db, err := OpenDurable(cfg); err == nil {
			db.Close()
			t.Fatalf("OpenDurable(%+v) opened without a Dir", cfg)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	db := testDB(t, 4, 3)
	pkey := "412:MCE"
	for i := 0; i < 100; i++ {
		if err := db.Put("events", pkey, eventRow(int64(1000+i), fmt.Sprint(i), "MCE", "c0-0c0s0n0"), Quorum); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Get("events", pkey, Range{}, Quorum)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key >= rows[i].Key {
			t.Fatalf("rows not sorted at %d", i)
		}
	}
}

func TestTimeRangeQuery(t *testing.T) {
	// E1: partitions are one-hour time series; sub-range scans by
	// timestamp must return exactly the window.
	db := testDB(t, 4, 2)
	pkey := "0:LUSTRE"
	base := int64(3600 * 100)
	for i := int64(0); i < 3600; i += 10 {
		if err := db.Put("events", pkey, eventRow(base+i, "x", "LUSTRE", "c1-1c1s1n1"), One); err != nil {
			t.Fatal(err)
		}
	}
	rg := Range{From: EncodeTS(base + 600), To: EncodeTS(base + 1200)}
	rows, err := db.Get("events", pkey, rg, One)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("window returned %d rows, want 60", len(rows))
	}
	for _, r := range rows {
		ts, err := DecodeTS(r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if ts < base+600 || ts >= base+1200 {
			t.Fatalf("row ts %d outside window", ts)
		}
	}
}

func TestFlushCompactionPreservesData(t *testing.T) {
	db := openTest(t, Config{Nodes: 1, RF: 1, VNodes: 8, FlushThreshold: 10, MaxSegments: 2, CompactInterval: -1})
	db.CreateTable("events")
	pkey := "p"
	n := 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "T", "L"), All); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	node := db.Node(db.NodeIDs()[0])
	if segs := len(node.persist.Segments("events", pkey)); segs > db.Config().MaxSegments {
		t.Fatalf("compaction left %d segments", segs)
	}
	rows, err := db.Get("events", pkey, Range{}, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("after flush/compaction %d rows, want %d", len(rows), n)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key >= rows[i].Key {
			t.Fatal("rows out of order after compaction")
		}
	}
}

func TestOverwriteLastWriteWins(t *testing.T) {
	db := testDB(t, 3, 3)
	r1 := MapRow("k", 0, map[string]string{"v": "first"})
	r2 := MapRow("k", 0, map[string]string{"v": "second"})
	if err := db.Put("events", "p", r1, All); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("events", "p", r2, All); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Get("events", "p", Range{}, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Col("v") != "second" {
		t.Fatalf("LWW failed: %+v", rows)
	}
}

func TestConsistencyRequired(t *testing.T) {
	cases := []struct {
		cl   Consistency
		rf   int
		want int
	}{
		{One, 3, 1}, {Quorum, 3, 2}, {All, 3, 3},
		{Quorum, 5, 3}, {Quorum, 1, 1}, {All, 1, 1},
	}
	for _, c := range cases {
		if got := c.cl.required(c.rf); got != c.want {
			t.Errorf("%v.required(%d) = %d, want %d", c.cl, c.rf, got, c.want)
		}
	}
	for cl, s := range map[Consistency]string{One: "ONE", Quorum: "QUORUM", All: "ALL"} {
		if cl.String() != s {
			t.Errorf("%d.String() = %q", int(cl), cl.String())
		}
	}
}

func TestUnavailableWhenReplicasDown(t *testing.T) {
	db := testDB(t, 3, 3)
	pkey := "p"
	replicas := db.Ring().Replicas(pkey)
	db.Ring().SetUp(replicas[0], false)
	db.Ring().SetUp(replicas[1], false)
	err := db.Put("events", pkey, eventRow(1, "d", "T", "L"), Quorum)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put with 1/3 live at QUORUM: err = %v", err)
	}
	if err := db.Put("events", pkey, eventRow(1, "d", "T", "L"), One); err != nil {
		t.Fatalf("Put at ONE with one live replica: %v", err)
	}
	if _, err := db.Get("events", pkey, Range{}, All); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get at ALL with down replicas: err = %v", err)
	}
}

func TestRepairConvergesReplicas(t *testing.T) {
	db := testDB(t, 5, 3)
	pkey := "p"
	replicas := db.Ring().Replicas(pkey)
	db.Ring().SetUp(replicas[2], false)
	for i := 0; i < 50; i++ {
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "T", "L"), Quorum); err != nil {
			t.Fatal(err)
		}
	}
	db.Ring().SetUp(replicas[2], true)
	// The recovered node missed all writes.
	rows, err := readReplica(context.Background(), db.Node(replicas[2]), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("down replica has %d rows before repair", len(rows))
	}
	copied, err := db.Repair("events")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 50 {
		t.Fatalf("repair copied %d rows, want 50", copied)
	}
	rows, err = readReplica(context.Background(), db.Node(replicas[2]), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("after repair replica has %d rows, want 50", len(rows))
	}
	// Repair is idempotent.
	copied, err = db.Repair("events")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("second repair copied %d rows, want 0", copied)
	}
}

// TestRepairPatchesMissedOverwrite: a replica that holds every key of a
// partition but missed one overwrite is as stale as one that missed a
// row, and anti-entropy copies it the newer version.
func TestRepairPatchesMissedOverwrite(t *testing.T) {
	db := testDB(t, 5, 3)
	pkey := "p"
	for i := 0; i < 10; i++ {
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "T", "L"), All); err != nil {
			t.Fatal(err)
		}
	}
	victim := db.Ring().Replicas(pkey)[2]
	db.Ring().SetUp(victim, false)
	key := EncodeTS(3) + ":d"
	over := MapRow(key, 0, map[string]string{"type": "T", "source": "L", "amount": "99"})
	if err := db.Put("events", pkey, over, Quorum); err != nil {
		t.Fatal(err)
	}
	db.hintLog.take(victim) // as a coordinator restart drops them
	db.Ring().SetUp(victim, true)

	copied, err := db.Repair("events")
	if err != nil {
		t.Fatal(err)
	}
	it, err := db.Node(victim).Scan(context.Background(), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range collectIter(t, it) {
		if r.Key == key && r.Col("amount") != "99" {
			t.Fatalf("after repair the replica holds amount %q for %s, want 99", r.Col("amount"), key)
		}
	}
	if copied != 1 {
		t.Fatalf("repair copied %d rows, want 1", copied)
	}
}

func TestReplicationPlacesRFCopies(t *testing.T) {
	db := testDB(t, 8, 3)
	pkey := "42:GPU_XID"
	if err := db.Put("events", pkey, eventRow(1, "d", "GPU_XID", "L"), All); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, id := range db.NodeIDs() {
		if rowCount(t, db.Node(id), pkey) > 0 {
			holders++
		}
	}
	if holders != 3 {
		t.Fatalf("%d nodes hold the row, want RF=3", holders)
	}
}

func TestConcurrentWriters(t *testing.T) {
	db := testDB(t, 4, 3)
	var wg sync.WaitGroup
	writers, perWriter := 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				pkey := fmt.Sprintf("%d:MCE", i%4)
				r := eventRow(int64(w*perWriter+i), fmt.Sprintf("w%d-%d", w, i), "MCE", "L")
				if err := db.Put("events", pkey, r, Quorum); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, pkey := range partitionKeys(t, db, "events") {
		rows, err := db.Get("events", pkey, Range{}, Quorum)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != writers*perWriter {
		t.Fatalf("read back %d rows, want %d", total, writers*perWriter)
	}
}

func TestMissingTable(t *testing.T) {
	db := testDB(t, 2, 1)
	if err := db.Put("nope", "p", Row{Key: "k"}, One); err == nil {
		t.Error("Put to missing table succeeded")
	}
	if _, err := db.Get("nope", "p", Range{}, One); err == nil {
		t.Error("Get from missing table succeeded")
	}
	if _, err := db.Repair("nope"); err == nil {
		t.Error("Repair of missing table succeeded")
	}
}

func TestCreateTableIdempotentAndListed(t *testing.T) {
	db := testDB(t, 2, 1)
	db.CreateTable("events")
	db.CreateTable("apps")
	tables := db.Tables()
	if len(tables) != 2 || tables[0] != "apps" || tables[1] != "events" {
		t.Fatalf("Tables = %v", tables)
	}
	if !db.HasTable("events") || db.HasTable("ghost") {
		t.Fatal("HasTable wrong")
	}
}

func TestPartitionKeysUnion(t *testing.T) {
	db := testDB(t, 4, 1)
	want := []string{"0:A", "1:B", "2:C"}
	for _, pk := range want {
		if err := db.Put("events", pk, eventRow(1, "d", "T", "L"), One); err != nil {
			t.Fatal(err)
		}
	}
	got := partitionKeys(t, db, "events")
	if len(got) != len(want) {
		t.Fatalf("PartitionKeys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PartitionKeys = %v, want %v", got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Nodes != 32 || cfg.RF != 3 || cfg.VNodes != 64 {
		t.Fatalf("defaults = %+v", cfg)
	}
	capped := Config{Nodes: 2, RF: 5}.withDefaults()
	if capped.RF != 2 {
		t.Fatalf("RF not capped at node count: %+v", capped)
	}
}

func TestEmptyBatchAndEmptyPartition(t *testing.T) {
	db := testDB(t, 2, 2)
	if err := db.PutBatch("events", "p", nil, All); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	rows, err := db.Get("events", "never-written", Range{}, One)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty partition returned %d rows", len(rows))
	}
}
