package enginetest

import (
	"bytes"
	"testing"
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
