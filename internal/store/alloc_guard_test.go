//go:build !race

package store

import (
	"context"
	"testing"
)

// Allocation regression guard for the write-path encode: one commitlog put
// record for a 100-row batch must stay within a fixed allocation budget —
// the codec writes each distinct column name once per record and rows
// carry no maps, so the cost is buffer growth plus the unit name table,
// independent of row count. Excluded under -race (detector bookkeeping).
func TestPutEncodeAllocBudget(t *testing.T) {
	const batch = 100
	countID := InternColumn("count")
	msgID := InternColumn("msg")
	rows := make([]Row, batch)
	for i := range rows {
		rows[i] = MakeRow(EncodeTS(int64(1000+i))+":n", int64(i+1), []Col{
			{ID: countID, Value: "1"},
			{ID: msgID, Value: "machine check exception"},
		})
	}
	buf := make([]byte, 0, 64<<10)
	avg := testing.AllocsPerRun(50, func() {
		if out := encodePutRecord(buf[:0], "events", "hour-1", rows); len(out) == 0 {
			t.Fatal("empty record")
		}
	})
	// The record encoder needs the unit name table (map + names slice) and
	// nothing per row; give slack for map internals.
	const budget = 8
	if avg > budget {
		t.Fatalf("encoding a %d-row put record allocates %.0f objects, budget %d — "+
			"did per-row work sneak back into the codec?", batch, avg, budget)
	}
}

// Allocation regression guard for the row read paths of a durable
// partition: Get at consistency One, and PartitionBatches at Quorum (Get on
// two replicas, a last-write-wins merge, then rows re-batched). Rows come
// off the segment decoder in the one compact form and stay in it, so the
// cost is per block and per call, never per row: no map per row out of
// Get, no cell slice per row into a batch.
func TestDurableReadAllocBudget(t *testing.T) {
	const nRows = 4096
	db, err := OpenDurable(Config{
		Nodes: 3, RF: 2, VNodes: 16,
		FlushThreshold:  1 << 20,
		Dir:             t.TempDir(),
		WALNoSync:       true,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	srcID, amountID := InternColumn("source"), InternColumn("amount")
	for off := 0; off < nRows; off += 512 {
		rows := make([]Row, 512)
		for i := range rows {
			rows[i] = MakeRow(EncodeTS(int64(1000+off+i))+":c0-0c0s0n0", 0, []Col{
				{ID: srcID, Value: "c0-0c0s0n0"},
				{ID: amountID, Value: "1"},
			})
		}
		if err := db.PutBatch("events", "412:MCE", rows, All); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.StorageStats().DiskSegments == 0 {
		t.Fatal("partition not on disk")
	}

	get := testing.AllocsPerRun(5, func() {
		rows, err := db.Get("events", "412:MCE", Range{}, One)
		if err != nil || len(rows) != nRows {
			t.Fatalf("Get: %d rows, %v", len(rows), err)
		}
	}) / nRows
	batches := testing.AllocsPerRun(5, func() {
		it, err := db.PartitionBatches(context.Background(), "events", "412:MCE", Range{}, Quorum, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for b, ok := it.Next(); ok; b, ok = it.Next() {
			n += b.Len()
		}
		if err := it.Close(); err != nil || n != nRows {
			t.Fatalf("PartitionBatches: %d rows, %v", n, err)
		}
	}) / nRows
	// A map or a cell slice per row is at least one allocation per row.
	const budget = 0.25
	if get > budget || batches > budget {
		t.Fatalf("reading a %d-row durable partition allocates %.2f objects/row through Get(One) and %.2f through PartitionBatches(Quorum), budget %.2f — "+
			"is a row being converted per row again?", nRows, get, batches, budget)
	}
}
