package enginetest

import (
	"bytes"
	"testing"
)

// resident fails the test once the memtable-resident harness h has written
// a segment: the reference must never read the codec it checks.
func resident(t *testing.T, h *Harness) {
	t.Helper()
	if n := h.DB.StorageStats().DiskSegments; n != 0 {
		t.Fatalf("the memtable-resident harness wrote %d segments", n)
	}
}

// TestDurableEngineCorpus proves the segment codec invisible to the query
// layer: every query.Op result computed over disk-backed segments is
// byte-identical to the memtable-resident path, both before and after a
// restart (close + commitlog-replaying reopen).
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
			pinAnswer(t, c.Name, durRes)
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
			pinAnswer(t, c.Name, got)
			if !bytes.Equal(got, want[c.Name]) {
				t.Fatalf("result changed across restart:\nbefore: %.300s\nafter:  %.300s", want[c.Name], got)
			}
		})
	}
	resident(t, mem)
}
