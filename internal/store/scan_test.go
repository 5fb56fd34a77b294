package store

import (
	"fmt"
	"testing"
)

func collectIter(t *testing.T, it RowIter) []Row {
	t.Helper()
	var out []Row
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iter error: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("iter close: %v", err)
	}
	return out
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].WriteTS != b[i].WriteTS {
			return false
		}
		// Compare logical cell content.
		am, bm := a[i].ColumnsMap(), b[i].ColumnsMap()
		if len(am) != len(bm) {
			return false
		}
		for k, v := range am {
			if bm[k] != v {
				return false
			}
		}
	}
	return true
}

// TestScanMatchesGet checks that the streaming scan yields exactly what a
// materialized Get returns, across segment flushes, in-place overwrites,
// and clustering ranges.
func TestScanMatchesGet(t *testing.T) {
	db := openTest(t, Config{Nodes: 4, RF: 2, FlushThreshold: 16, MaxSegments: 2})
	db.CreateTable("t")
	const pkey = "p0"
	// Enough rows to force several flushes and a compaction, plus
	// overwrites of existing keys with newer write timestamps.
	for i := 0; i < 100; i++ {
		row := MapRow(EncodeTS(int64(i%40)), 0, map[string]string{"v": fmt.Sprint(i)})
		if err := db.Put("t", pkey, row, All); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []Range{
		{},
		{From: EncodeTS(5)},
		{To: EncodeTS(20)},
		{From: EncodeTS(10), To: EncodeTS(30)},
		{From: EncodeTS(100), To: EncodeTS(200)}, // empty
	}
	for _, rg := range ranges {
		want, err := db.Get("t", pkey, rg, One)
		if err != nil {
			t.Fatal(err)
		}
		it, err := db.ScanPartitionPruned("t", pkey, rg, One, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := collectIter(t, it)
		if !sameRows(got, want) {
			t.Fatalf("scan mismatch for range %+v: got %d rows, want %d", rg, len(got), len(want))
		}
	}
}

func TestScanQuorumFallback(t *testing.T) {
	db := openTest(t, Config{Nodes: 4, RF: 3})
	db.CreateTable("t")
	for i := 0; i < 10; i++ {
		if err := db.Put("t", "p", Row{Key: EncodeTS(int64(i))}, All); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.ScanPartitionPruned("t", "p", Range{}, Quorum, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectIter(t, it); len(got) != 10 {
		t.Fatalf("quorum scan returned %d rows, want 10", len(got))
	}
}

func TestScanMissingPartitionAndTable(t *testing.T) {
	db := openTest(t, Config{Nodes: 2, RF: 1})
	db.CreateTable("t")
	it, err := db.ScanPartitionPruned("t", "nope", Range{}, One, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectIter(t, it); len(got) != 0 {
		t.Fatalf("expected empty scan, got %d rows", len(got))
	}
	if _, err := db.ScanPartitionPruned("missing", "p", Range{}, One, nil, nil); err == nil {
		t.Fatal("expected error for missing table")
	}
}

// TestScanSnapshotIsolation checks that writes racing an open scan do not
// corrupt or change the already-opened snapshot.
func TestScanSnapshotIsolation(t *testing.T) {
	db := openTest(t, Config{Nodes: 2, RF: 1, FlushThreshold: 8})
	db.CreateTable("t")
	for i := 0; i < 20; i++ {
		if err := db.Put("t", "p", Row{Key: EncodeTS(int64(i))}, All); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.ScanPartitionPruned("t", "p", Range{}, One, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Write more rows (forcing flushes) while the scan is open.
	for i := 20; i < 60; i++ {
		if err := db.Put("t", "p", Row{Key: EncodeTS(int64(i))}, All); err != nil {
			t.Fatal(err)
		}
	}
	got := collectIter(t, it)
	if len(got) != 20 {
		t.Fatalf("snapshot scan saw %d rows, want 20", len(got))
	}
	for i, r := range got {
		if r.Key != EncodeTS(int64(i)) {
			t.Fatalf("row %d out of order: %q", i, r.Key)
		}
	}
}

func TestGenerationAdvancesOnWrite(t *testing.T) {
	db := openTest(t, Config{Nodes: 2, RF: 1})
	g0 := db.Generation()
	db.CreateTable("t")
	if db.Generation() == g0 {
		t.Fatal("CreateTable did not advance generation")
	}
	g1 := db.Generation()
	if err := db.Put("t", "p", Row{Key: "k"}, One); err != nil {
		t.Fatal(err)
	}
	if db.Generation() == g1 {
		t.Fatal("Put did not advance generation")
	}
	g2 := db.Generation()
	if _, err := db.Get("t", "p", Range{}, One); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != g2 {
		t.Fatal("plain read advanced generation")
	}
}
