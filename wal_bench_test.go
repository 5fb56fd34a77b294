// Benchmarks for the durable storage engine: raw commitlog append
// throughput (group-commit fsync vs
// nosync) and end-to-end durable ingest through the store write path.
//
// Run:  go test -bench 'WAL|DurableIngest' -benchmem
//
// `make ci` runs these with -benchtime=1x as a smoke test so the durable
// path cannot rot unexercised.
package hpclog_test

import (
	"fmt"
	"testing"

	"hpclog/internal/store"
	"hpclog/internal/wal"
)

func benchWALAppend(b *testing.B, opts wal.Options) {
	opts.Dir = b.TempDir()
	l, err := wal.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	b.Run("fsync", func(b *testing.B) {
		benchWALAppend(b, wal.Options{})
	})
	b.Run("fsync-parallel", func(b *testing.B) {
		// Concurrent appenders share group-commit fsyncs; per-op cost
		// should drop well below the serial fsync case.
		opts := wal.Options{Dir: b.TempDir()}
		l, err := wal.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		payload := make([]byte, 256)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("nosync", func(b *testing.B) {
		benchWALAppend(b, wal.Options{NoSync: true})
	})
}

func benchIngest(b *testing.B, cfg store.Config) {
	db, err := store.OpenDurable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		b.Fatal(err)
	}
	const batchSize = 100
	// Rows are built on the interned-column fast path — the zero-map
	// representation the write pipeline keeps end to end (codec, memtable,
	// segment flush).
	countID := store.InternColumn("count")
	msgID := store.InternColumn("msg")
	rows := make([]store.Row, batchSize)
	b.SetBytes(batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			seq := int64(i*batchSize + j)
			rows[j] = store.MakeRow(store.EncodeTS(seq)+":node", 0, []store.Col{
				{ID: countID, Value: "1"},
				{ID: msgID, Value: "machine check exception"},
			})
		}
		pkey := fmt.Sprintf("hour-%d", i%4)
		if err := db.PutBatch("events", pkey, rows, store.Quorum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableIngest measures PutBatch throughput (rows/sec via
// B/op=rows) with the commitlog synced on every batch, against an
// unsynced commitlog.
func BenchmarkDurableIngest(b *testing.B) {
	base := store.Config{Nodes: 4, RF: 2, VNodes: 16, CompactInterval: -1}
	b.Run("durable", func(b *testing.B) {
		cfg := base
		cfg.Dir = b.TempDir()
		benchIngest(b, cfg)
	})
	b.Run("durable-nosync", func(b *testing.B) {
		cfg := base
		cfg.Dir = b.TempDir()
		cfg.WALNoSync = true
		benchIngest(b, cfg)
	})
}
