package store

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpclog/internal/cluster"
	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/wal"
)

// TestLocalReplicasShareOneSync: the three in-process replicas of a
// batch under the flush threshold append to the one commitlog and wait
// for it together, so in batch mode the write costs one fsync of a
// commitlog file, not one per replica.
func TestLocalReplicasShareOneSync(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	db, err := OpenDurable(Config{Nodes: 3, RF: 3, VNodes: 8, Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	from := len(rec.Ops())
	rows := []Row{durableRow(1), durableRow(2), durableRow(3)}
	if err := db.PutBatch("events", "p", rows, All); err != nil {
		t.Fatal(err)
	}
	syncs := 0 // of files in any commitlog directory
	for _, op := range rec.Ops()[from:] {
		if op.Kind == "sync" && filepath.Base(filepath.Dir(op.Path)) == "wal" {
			syncs++
		}
	}
	if syncs != 1 {
		t.Fatalf("one batch to three local replicas made %d commitlog syncs, want 1", syncs)
	}
	if st := db.StorageStats(); st.WALAppends != 3 {
		t.Fatalf("%d commitlog appends, want one record per replica", st.WALAppends)
	}
	for _, id := range db.Ring().Replicas("p") {
		if got := rowCount(t, db.Node(id), "p"); got != len(rows) {
			t.Fatalf("replica %s holds %d rows, want %d", id, got, len(rows))
		}
	}
}

// writePredecessorLogs writes, under dir, the per-node commitlogs a store
// of cfg kept before every local node shared one: for each partition,
// every replica's node-<id>/wal holds its batches as untagged put
// records, over several segment files. It returns the rows by partition.
func writePredecessorLogs(t *testing.T, cfg Config, parts, batches int) map[string][]Row {
	t.Helper()
	cfg = cfg.withDefaults()
	ring := cluster.NewRing(cfg.RF, cfg.VNodes)
	logs := make(map[string]*wal.Log)
	for i := 0; i < cfg.Nodes; i++ {
		id := fmt.Sprintf("store%02d", i)
		ring.AddNode(id)
		l, err := wal.Open(wal.Options{Dir: filepath.Join(cfg.Dir, "node-"+id, "wal"), SegmentBytes: 1 << 10, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		logs[id] = l
	}
	want := make(map[string][]Row)
	ts := int64(0)
	for p := 0; p < parts; p++ {
		pkey := fmt.Sprintf("part-%02d", p)
		for b := 0; b < batches; b++ {
			var rows []Row
			for i := 0; i < 5; i++ {
				ts++
				r := durableRow(int64(p*1000 + b*5 + i))
				r.WriteTS = ts
				rows = append(rows, r)
			}
			want[pkey] = append(want[pkey], rows...)
			for _, id := range ring.Replicas(pkey) {
				if _, err := logs[id].Append(encodePutRecord(nil, "events", pkey, rows)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// rowPrints returns each partition's rows as key, write timestamp and
// columns, comparable whatever codec produced them.
func rowPrints(parts map[string][]Row) map[string][]string {
	out := make(map[string][]string, len(parts))
	for pkey, rows := range parts {
		for _, r := range rows {
			out[pkey] = append(out[pkey], fmt.Sprint(r.Key, r.WriteTS, r.ColumnsMap()))
		}
	}
	return out
}

// TestPredecessorNodeLogs opens a store written in the layout before the
// shared commitlog, where each node kept its own under node-<id>/wal:
// every row is replayed into the node that logged it; a truncation keeps
// those logs while a memtable holds their rows, and the first one after
// they are all flushed removes them, so a reopen replays nothing; and
// the kill -9, power-loss and torn states at every boundary of that
// Flush recover the same rows.
func TestPredecessorNodeLogs(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	want := rowPrints(writePredecessorLogs(t, cfg, 4, 6))
	segs, _ := filepath.Glob(filepath.Join(dir, "node-*", "wal", "*.log"))
	if len(segs) <= 3 {
		t.Fatalf("the predecessor logs hold %d segment files, want several a node", len(segs))
	}

	rec := fsystest.Install(t)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := rowPrints(readAll(t, db, "events")); !reflect.DeepEqual(got, want) {
		t.Fatalf("opened with predecessor logs: %d partitions, want %d as logged", len(got), len(want))
	}
	if st := db.StorageStats(); st.ReplayedRecords == 0 {
		t.Fatal("nothing replayed from the predecessor logs")
	}
	// The replayed rows are still only in memtables: a truncation now
	// must keep the logs that hold them.
	if err := db.log.truncate(db.nodes); err != nil {
		t.Fatal(err)
	}
	if kept, _ := filepath.Glob(filepath.Join(dir, "node-*", "wal")); len(kept) != cfg.Nodes {
		t.Fatalf("a truncation before any flush left %d of %d predecessor logs", len(kept), cfg.Nodes)
	}
	from := len(rec.Ops())
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	end := len(rec.Ops())
	if left, _ := filepath.Glob(filepath.Join(dir, "node-*", "wal")); len(left) != 0 {
		t.Fatalf("after Flush the predecessor logs remain: %v", left)
	}
	removed := 0
	for _, op := range rec.Ops()[from:end] {
		if op.Kind == "remove" && strings.Contains(op.Path, "node-") {
			removed++
		}
	}
	if removed <= len(segs) {
		t.Fatalf("Flush made %d removals under node directories, want the %d segment files and their directories", removed, len(segs))
	}

	// Every state runs under its kind and boundary, not just the first of
	// each digest: the nodes flush at once, so which boundaries hold
	// distinct bytes differs from run to run. States of one digest recover
	// alike, so each digest is recovered once.
	var states []fsystest.State
	for at := from; at <= end; at++ {
		states = append(states, rec.States(at, tornStates, dir)...)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := db2.StorageStats(); st.ReplayedRecords != 0 {
		t.Fatalf("the reopen after Flush replayed %d records, want 0", st.ReplayedRecords)
	}
	if got := rowPrints(readAll(t, db2, "events")); !reflect.DeepEqual(got, want) {
		t.Fatal("the reopen after Flush lost rows")
	}
	db2.Close()

	recovered := make(map[[sha256.Size]byte]bool)
	for _, s := range states {
		t.Run(fmt.Sprintf("%s-%d", s.Kind, s.At-from), func(t *testing.T) {
			if ok, seen := recovered[s.Digest]; seen {
				if !ok {
					t.Fatal("an earlier state of the same bytes failed to recover")
				}
				return
			}
			recovered[s.Digest] = false
			rcfg := cfg
			rcfg.Dir = s.Write(t)[0]
			rdb, err := OpenDurable(rcfg)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer rdb.Close()
			if got := rowPrints(readAll(t, rdb, "events")); !reflect.DeepEqual(got, want) {
				t.Fatal("recovered rows differ from the logged rows")
			}
			recovered[s.Digest] = true
		})
	}
}

// TestTruncateWhileWriting truncates the commitlog while a write's
// records are appended but not yet in the memtables, just after the
// segment that holds them was rotated out. The truncation must wait for
// the write and keep that segment, so a reopen, which replays the log
// into empty memtables, still holds the row.
func TestTruncateWhileWriting(t *testing.T) {
	cfg := Config{Nodes: 2, RF: 2, VNodes: 8, Dir: t.TempDir(), CompactInterval: -1}
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	truncated := make(chan error, 1)
	db.log.written = func() {
		db.log.written = nil
		go func() {
			if err := db.log.Rotate(); err != nil {
				truncated <- err
				return
			}
			truncated <- db.log.truncate(db.nodes)
		}()
		// A fenced truncation waits for this write to reach the
		// memtables; give an unfenced one the time to finish first.
		select {
		case err := <-truncated:
			truncated <- err
		case <-time.After(100 * time.Millisecond):
		}
	}
	row := durableRow(1)
	if err := db.Put("events", "part-0", row, All); err != nil {
		t.Fatal(err)
	}
	if err := <-truncated; err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.WALRotations == 0 || st.WALTruncatedSegments != 0 {
		t.Fatalf("want one rotation and no segment cut under a write in flight: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rows, err := db2.Get("events", "part-0", Range{}, All); err != nil || len(rows) != 1 || rows[0].Key != row.Key {
		t.Fatalf("the row written while the commitlog was truncated is gone after a reopen: %v %+v", err, rows)
	}
}
