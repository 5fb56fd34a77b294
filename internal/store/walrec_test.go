package store

import (
	"errors"
	"testing"

	"hpclog/internal/store/persist"
)

func TestPutRecordRoundTrip(t *testing.T) {
	rows := []Row{
		MakeRow("k1", 7, []Col{C("amount", "3"), C("source", "c0-0c0s0n0")}),
		MakeRow("k2", 8, []Col{C("amount", "1")}),
		MapRow("k3", 9, map[string]string{"raw": "boom"}),
	}
	payload := encodePutRecord(nil, "events", "412:MCE", rows)
	rec, err := decodeWALRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.kind != recPut || rec.table != "events" || rec.pkey != "412:MCE" {
		t.Fatalf("decoded %+v", rec)
	}
	if len(rec.rows) != 3 {
		t.Fatalf("decoded %d rows", len(rec.rows))
	}
	for i, r := range rec.rows {
		want := rows[i]
		if r.Key != want.Key || r.WriteTS != want.WriteTS {
			t.Fatalf("row %d: got (%q,%d)", i, r.Key, r.WriteTS)
		}
		wm, gm := want.ColumnsMap(), r.ColumnsMap()
		if len(wm) != len(gm) {
			t.Fatalf("row %d: %d cols want %d", i, len(gm), len(wm))
		}
		for k, v := range wm {
			if gm[k] != v {
				t.Fatalf("row %d col %q = %q want %q", i, k, gm[k], v)
			}
		}
	}
}

// TestV1WALRecordRejectedClearly pins the commitlog upgrade story: replay
// of a pre-v2 put record (kind byte 1, per-row name strings) must fail
// with persist.ErrVersion and an actionable message, never decode
// garbage.
func TestV1WALRecordRejectedClearly(t *testing.T) {
	_, err := decodeWALRecord([]byte{recPutV1, 0x06, 'e', 'v', 'e', 'n', 't', 's'})
	if !errors.Is(err, persist.ErrVersion) {
		t.Fatalf("v1 record decode: %v, want persist.ErrVersion", err)
	}
}
