// Benchmarks for the tiered object-storage read path: one partition
// scan with the segments resident on local disk, evicted but warm in the
// block cache, and evicted with a cache too small to help (every scan
// re-fetches and Merkle-verifies its blocks from the object store).
//
// Run:  go test -bench BenchmarkTieredScan -benchmem
//
// `make tier-smoke` (in `make ci`) runs these with -benchtime=1x so the
// fetch path cannot rot unexercised.
package hpclog_test

import (
	"fmt"
	"testing"

	"hpclog/internal/objstore"
	"hpclog/internal/store"
)

const tieredBenchRows = 8192

// benchTieredStore builds a single-replica durable store with a local-fs
// tier and one hot partition sealed into segment files.
func benchTieredStore(b *testing.B, cacheBytes int64) *store.DB {
	b.Helper()
	db, err := store.OpenDurable(store.Config{
		Nodes: 1, RF: 1, VNodes: 8,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             b.TempDir(),
		Tier:            objstore.Config{Backend: "fs", Dir: b.TempDir(), CacheBytes: cacheBytes},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.CreateTable("events"); err != nil {
		b.Fatal(err)
	}
	msgID := store.InternColumn("msg")
	rows := make([]store.Row, 0, 256)
	for i := 0; i < tieredBenchRows; i++ {
		rows = append(rows, store.MakeRow(store.EncodeTS(int64(100000+i))+":node", 0, []store.Col{
			{ID: msgID, Value: fmt.Sprintf("machine check exception %d", i)},
		}))
		if len(rows) == 256 {
			if err := db.PutBatch("events", "hot", rows, store.One); err != nil {
				b.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchTieredScan(b *testing.B, db *store.DB) {
	b.Helper()
	b.SetBytes(tieredBenchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Get("events", "hot", store.Range{}, store.One)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != tieredBenchRows {
			b.Fatalf("scan returned %d rows, want %d", len(rows), tieredBenchRows)
		}
	}
}

// BenchmarkTieredScan measures a full-partition scan (rows/sec via
// B/op=rows) across the three tier states a segment can be read in.
func BenchmarkTieredScan(b *testing.B) {
	b.Run("resident", func(b *testing.B) {
		db := benchTieredStore(b, 64<<20)
		benchTieredScan(b, db)
	})
	b.Run("cached", func(b *testing.B) {
		db := benchTieredStore(b, 64<<20)
		if _, _, err := db.TierSweep(true); err != nil {
			b.Fatal(err)
		}
		// One warm-up scan pulls every block into the cache.
		if _, err := db.Get("events", "hot", store.Range{}, store.One); err != nil {
			b.Fatal(err)
		}
		benchTieredScan(b, db)
	})
	b.Run("cold-fetch", func(b *testing.B) {
		// A cache far below the partition's footprint: every scan re-fetches
		// and re-verifies essentially every block from the object store.
		db := benchTieredStore(b, 64<<10)
		if _, _, err := db.TierSweep(true); err != nil {
			b.Fatal(err)
		}
		benchTieredScan(b, db)
	})
}
