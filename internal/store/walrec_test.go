package store

import (
	"errors"
	"path/filepath"
	"testing"

	"hpclog/internal/store/persist"
	"hpclog/internal/wal"
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

// TestOldCreateTableRecordSkipped: logs written before the commitlog
// carried puts only may still hold table-creation records (kind byte 2).
// Replay skips them; the rows logged around them replay as before.
func TestOldCreateTableRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("events", "p", durableRow(1), Quorum); err != nil {
		t.Fatal(err)
	}
	db.Close()
	walDirs, err := filepath.Glob(filepath.Join(dir, "wal"))
	if err != nil || len(walDirs) == 0 {
		t.Fatalf("no commitlog directories: %v", err)
	}
	for _, d := range walDirs {
		l, err := wal.Open(wal.Options{Dir: d})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte{recCreateTable, 3, 'o', 'l', 'd'}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rows, err := db2.Get("events", "p", Range{}, Quorum); err != nil || len(rows) != 1 {
		t.Fatalf("after replay: %d rows, %v; want the 1 logged row", len(rows), err)
	}
}
