package enginetest

import (
	"bytes"
	"encoding/json"
	"testing"

	"hpclog/internal/compute"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// TestDurableEngineCorpus proves the storage engine invisible to the query
// layer: every query.Op result computed over disk-backed segments is
// byte-identical to the in-memory path, both before and after a restart
// (close + commitlog-replaying reopen).
func TestDurableEngineCorpus(t *testing.T) {
	mem := New(t)
	dur := NewDurable(t)
	if dur.DB.StorageStats().DiskSegments == 0 {
		t.Fatal("durable harness produced no on-disk segments; lower FlushThreshold")
	}

	rows := rowResults(t, mem)
	sameRowResults(t, "durable", rows, rowResults(t, dur))
	cases := Cases(mem)
	want := make(map[string][]byte, len(cases))
	for _, c := range cases {
		t.Run("disk/"+c.Name, func(t *testing.T) {
			memRes, err := mem.Direct(c.Req)
			if err != nil {
				t.Fatalf("in-memory execution: %v", err)
			}
			durRes := dur.Run(t, c) // direct-vs-wire parity on the durable stack
			if !bytes.Equal(memRes, durRes) {
				t.Fatalf("disk-backed result differs from in-memory:\nmem:  %.300s\ndisk: %.300s", memRes, durRes)
			}
			want[c.Name] = durRes
		})
	}

	// Restart: recovery must reproduce every result byte-for-byte.
	dur.Reopen(t)
	if dur.DB.StorageStats().ReplayedRecords == 0 {
		t.Fatal("reopen replayed no commitlog records; the harness should leave unflushed memtables behind")
	}
	sameRowResults(t, "durable after restart", rows, rowResults(t, dur))
	for _, c := range Cases(dur) {
		t.Run("reopen/"+c.Name, func(t *testing.T) {
			got := dur.Run(t, c)
			if !bytes.Equal(got, want[c.Name]) {
				t.Fatalf("result changed across restart:\nbefore: %.300s\nafter:  %.300s", want[c.Name], got)
			}
		})
	}
}

// TestSnapshotRestoreRoundTrip proves the snapshot stream lossless: a
// fresh cluster restored from a snapshot answers every query.Op
// byte-identically to the source cluster.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := New(t)
	var snap bytes.Buffer
	if err := src.DB.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	db, err := store.OpenDurable(store.Config{Nodes: 8, RF: 2, VNodes: 32, FlushThreshold: 2048})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := db.Restore(&snap, store.Quorum)
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("snapshot restored zero rows")
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	serial := query.NewWithOptions(db, eng, query.Options{Parallelism: 1, CacheSize: -1})

	for _, c := range Cases(src) {
		t.Run(c.Name, func(t *testing.T) {
			want, err := src.Direct(c.Req)
			if err != nil {
				t.Fatalf("source execution: %v", err)
			}
			res, err := serial.Execute(c.Req)
			if err != nil {
				t.Fatalf("restored execution: %v", err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restored result differs:\nsource:   %.300s\nrestored: %.300s", want, got)
			}
		})
	}
}
